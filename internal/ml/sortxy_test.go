package ml

import (
	"math"
	"sort"
	"testing"
)

// FuzzSortXY checks that sortXY leaves exactly the permutation sort.Slice
// leaves when it sorts row indices by the same values. Each input byte is
// one value; the first byte picks how many low bits are dropped, so inputs
// range from two distinct values (almost all ties) to 256. 255 decodes to
// NaN and 254 to -0, which compare like ties. The target y is the row
// number, so any change in the order of tied values shows.
func FuzzSortXY(f *testing.F) {
	seed := func(n int, at func(i int) byte) []byte {
		b := make([]byte, n+1)
		b[0] = 4 // 16 distinct values
		for i := 0; i < n; i++ {
			b[i+1] = at(i)
		}
		return b
	}
	f.Add([]byte{})
	f.Add([]byte{0, 7})
	for _, n := range []int{11, 12, 13, 49, 50, 51, 200} {
		f.Add(seed(n, func(i int) byte { return byte(i * 37) }))       // scattered
		f.Add(seed(n, func(i int) byte { return byte(255 - i) }))      // descending, NaNs first
		f.Add(seed(n, func(i int) byte { return byte(i) }))            // ascending
		f.Add(seed(n, func(i int) byte { return 100 }))                // all equal
		f.Add(seed(n, func(i int) byte { return byte((i % 7) * 40) })) // sawtooth
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		shift := raw[0] & 7
		vals := raw[1:]
		data := make([]xy, len(vals))
		for i, c := range vals {
			x := float64(c >> shift)
			switch c {
			case 255:
				x = math.NaN()
			case 254:
				x = math.Copysign(0, -1)
			}
			data[i] = xy{x: x, y: float64(i)}
		}
		x := make([]float64, len(data))
		order := make([]int, len(data))
		for i, p := range data {
			x[i] = p.x
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })
		sortXY(data)
		for k, p := range data {
			if int(p.y) != order[k] {
				t.Fatalf("position %d holds row %v, sort.Slice puts row %d there", k, p.y, order[k])
			}
		}
	})
}
