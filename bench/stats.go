package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer, and the "percentile" is one or two outliers.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) (method "exclusive") gives
// them, which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// tailPercentile returns the nearest-rank p-th percentile (0 < p < 1) of
// xs, and ok=false when fewer than minBeyond samples lie beyond it.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	return sortedCopy(xs)[rank], true
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// digest is an FNV-64a accumulator over the outputs a pass must
// reproduce exactly.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) int(v int) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(v float64) {
	binary.LittleEndian.PutUint64(d.buf[:], math.Float64bits(v))
	d.h.Write(d.buf[:])
}

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
