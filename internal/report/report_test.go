package report

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := Table{
		Caption: "demo",
		Headers: []string{"name", "value"},
	}
	tab.AddRow("alpha", "1")
	tab.AddRow("beta-long", "22")
	out := tab.Render()
	if !strings.Contains(out, "demo") {
		t.Fatal("caption missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected caption+header+sep+2 rows, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[3], "alpha") || !strings.HasPrefix(lines[4], "beta-long") {
		t.Fatalf("row order wrong: %q / %q", lines[3], lines[4])
	}
}

func TestTableCSV(t *testing.T) {
	tab := Table{Headers: []string{"a", "b"}}
	tab.AddRow("x,y", `say "hi"`)
	csv := tab.CSV()
	want := "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestChartRender(t *testing.T) {
	c := Chart{
		Caption: "series",
		Series: []Series{
			{Name: "up", Values: []float64{0, 1, 2, 3, 4, 5}},
			{Name: "flat", Values: []float64{2, 2, 2}},
		},
		Width: 6,
	}
	out := c.Render()
	if !strings.Contains(out, "series") || !strings.Contains(out, "up") {
		t.Fatal("chart missing parts")
	}
	if !strings.Contains(out, "[0 .. 5]") {
		t.Fatalf("range annotation missing: %q", out)
	}
	// Rising series must end on the tallest block.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "█") {
		t.Fatalf("no full block in rising series: %q", lines[1])
	}
}

func TestChartEmptySeries(t *testing.T) {
	c := Chart{Series: []Series{{Name: "none"}}}
	if out := c.Render(); !strings.Contains(out, "none") {
		t.Fatal("empty series dropped")
	}
}

func TestSparklineDownsampling(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := sparkline(vals, 10)
	if len([]rune(s)) != 10 {
		t.Fatalf("sparkline length = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != sparkRunes[0] || runes[9] != sparkRunes[len(sparkRunes)-1] {
		t.Fatalf("monotone ramp should span block range: %q", s)
	}
}

func TestDownsampleShortInput(t *testing.T) {
	in := []float64{1, 2, 3}
	out := downsample(in, 10)
	if len(out) != 3 {
		t.Fatalf("short input should pass through, got %d", len(out))
	}
}

func TestTableCSVEmpty(t *testing.T) {
	// Headers only: one header line, nothing else.
	tab := Table{Headers: []string{"a", "b"}}
	if out := tab.CSV(); out != "a,b\n" {
		t.Fatalf("row-less table = %q", out)
	}
	// Fully empty table: a single newline (no phantom cells).
	empty := Table{}
	if out := empty.CSV(); out != "\n" {
		t.Fatalf("empty table = %q", out)
	}
}

func TestTableCSVNaNCell(t *testing.T) {
	tab := Table{Headers: []string{"metric", "value"}}
	tab.AddRow("sla", fmt.Sprintf("%g", math.NaN()))
	tab.AddRow("watts", "")
	out := tab.CSV()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[1] != "sla,NaN" {
		t.Fatalf("NaN cell = %q", lines[1])
	}
	if lines[2] != "watts," {
		t.Fatalf("empty cell = %q", lines[2])
	}
}

func TestMinMaxEmpty(t *testing.T) {
	lo, hi := minMax(nil)
	if lo != 0 || hi != 0 {
		t.Fatal("empty minMax should be zero")
	}
}
