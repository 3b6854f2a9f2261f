package obs

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParseText covers the parser `mdcsim serve -report` runs on a remote
// server's /metrics body, which arrives from outside the program. Any
// input must parse or fail cleanly, never panic; and for a registry
// holding the fuzzed counter and gauge values, the emitted exposition must
// parse back to exactly those values through Family.Value.
func FuzzParseText(f *testing.F) {
	seed := NewRegistry()
	seed.Counter("seed_total", "a counter").Add(7)
	seed.Gauge("seed_gauge", "a gauge").Set(-2.5)
	seed.Histogram("seed_seconds", "a histogram", []float64{0.1, 1}).Observe(0.5)
	var expo bytes.Buffer
	if err := seed.WritePrometheus(&expo); err != nil {
		f.Fatal(err)
	}
	f.Add(expo.Bytes(), uint64(7), -2.5)
	for _, in := range []string{
		"",
		"# TYPE x counter\nx 1\n",
		"x{a=\"b\"} 3\n",
		"x{ 1\n",
		"x}{ 1\n",
		"x\n",
		"x notanumber\n",
		"x_bucket{le=\"+Inf\"} 1\nx_sum 1\nx_count 1\n",
		"# HELP\n# TYPE\n#\n",
		"x +Inf\ny NaN\nz -0\n",
	} {
		f.Add([]byte(in), uint64(0), 0.0)
	}
	f.Add([]byte("x 1\n"), uint64(math.MaxUint64), math.Inf(-1))
	f.Add([]byte("x 1\n"), uint64(1<<53+1), math.NaN())
	f.Add([]byte("x 1\n"), uint64(3), math.SmallestNonzeroFloat64)

	f.Fuzz(func(t *testing.T, data []byte, c uint64, g float64) {
		// Arbitrary input: an error is fine, a panic is not.
		if fams, err := ParseText(bytes.NewReader(data)); err == nil {
			for i := range fams {
				fams[i].Value()
				fams[i].Histogram()
			}
		}

		r := NewRegistry()
		r.Counter("fuzz_total", "fuzzed counter").Add(c)
		r.Gauge("fuzz_gauge", "fuzzed gauge").Set(g)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, buf.String())
		}
		byName := make(map[string]*Family, len(fams))
		for i := range fams {
			byName[fams[i].Name] = &fams[i]
		}
		cf, gf := byName["fuzz_total"], byName["fuzz_gauge"]
		if cf == nil || gf == nil || len(fams) != 2 {
			t.Fatalf("families = %+v", fams)
		}
		if v, ok := cf.Value(); !ok || v != float64(c) {
			t.Fatalf("counter %d parsed back as %v (ok=%v)", c, v, ok)
		}
		v, ok := gf.Value()
		if !ok || !(math.Float64bits(v) == math.Float64bits(g) || math.IsNaN(v) && math.IsNaN(g)) {
			t.Fatalf("gauge %v parsed back as %v (ok=%v)", g, v, ok)
		}
	})
}
