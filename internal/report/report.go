// Package report renders experiment outputs: aligned text tables (the
// paper's tables), CSV exports, and compact ASCII charts for time series
// (the paper's figures, in terminal form).
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a simple rectangular table with a caption.
type Table struct {
	Caption string
	Headers []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns the table as aligned monospaced text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV returns the table in RFC-4180-ish CSV (values quoted when needed).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Series is one named time series.
type Series struct {
	Name   string
	Values []float64
}

// Chart renders a set of series as stacked ASCII sparklines with min/max
// annotations — the terminal stand-in for the paper's figures.
type Chart struct {
	Caption string
	Series  []Series
	// Width is the rendered sparkline width in characters (0 = 72).
	Width int
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Render draws each series as a downsampled sparkline.
func (c *Chart) Render() string {
	width := c.Width
	if width <= 0 {
		width = 72
	}
	var b strings.Builder
	if c.Caption != "" {
		fmt.Fprintf(&b, "%s\n", c.Caption)
	}
	nameW := 0
	for _, s := range c.Series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	for _, s := range c.Series {
		lo, hi := minMax(s.Values)
		fmt.Fprintf(&b, "%-*s %s [%.3g .. %.3g]\n",
			nameW, s.Name, sparkline(s.Values, width), lo, hi)
	}
	return b.String()
}

// sparkline downsamples values into width buckets (bucket mean) and maps
// each to one of eight block heights scaled to the series range.
func sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	buckets := downsample(values, width)
	lo, hi := minMax(buckets)
	span := hi - lo
	out := make([]rune, len(buckets))
	for i, v := range buckets {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(sparkRunes)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

// downsample reduces values to at most width bucket means.
func downsample(values []float64, width int) []float64 {
	if len(values) <= width {
		return values
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(values) / width
		hi := (i + 1) * len(values) / width
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range values[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
