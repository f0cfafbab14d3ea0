package bitvec

import (
	"math/rand"
	"testing"
)

func BenchmarkVectorSetGet(b *testing.B) {
	v := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		idx := i & (1<<16 - 1)
		v.Set(idx)
		if !v.Get(idx) {
			b.Fatal("bit lost")
		}
	}
}

func BenchmarkVectorCount(b *testing.B) {
	v := New(1 << 20)
	for i := 0; i < 1<<20; i += 3 {
		v.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkVectorForEach(b *testing.B) {
	v := New(1 << 18)
	for i := 0; i < 1<<18; i += 7 {
		v.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		v.ForEach(func(int) { n++ })
	}
}

func BenchmarkVectorOr(b *testing.B) {
	x, y := New(1<<20), New(1<<20)
	for i := 0; i < 1<<20; i += 5 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Or(y)
	}
}

// The next benchmarks pair the word-at-a-time range scan with its per-bit
// reference, so the kernels' switch to range scans is backed by before/after
// numbers (`go test -bench . ./internal/bitvec/`).

const benchBits = 1 << 16

func benchVectors(density float64) (*Vector, *Vector) {
	rng := rand.New(rand.NewSource(42))
	a, b := New(benchBits), New(benchBits)
	for i := 0; i < benchBits; i++ {
		if rng.Float64() < density {
			a.Set(i)
		}
		if rng.Float64() < density {
			b.Set(i)
		}
	}
	return a, b
}

func BenchmarkRangeScanPerBit(bm *testing.B) {
	a, _ := benchVectors(0.02) // sparse: a pruned adjacency range
	sink := 0
	bm.ReportAllocs()
	for n := 0; n < bm.N; n++ {
		for i := 100; i < benchBits-100; i++ {
			if a.Get(i) {
				sink += i
			}
		}
	}
	_ = sink
}

func BenchmarkRangeScanWordAtATime(bm *testing.B) {
	a, _ := benchVectors(0.02)
	sink := 0
	bm.ReportAllocs()
	for n := 0; n < bm.N; n++ {
		a.ForEachInRange(100, benchBits-100, func(i int) { sink += i })
	}
	_ = sink
}

func BenchmarkMatrixRowForEach(b *testing.B) {
	m := NewMatrix(1024, 256)
	for r := 0; r < 1024; r++ {
		for c := 0; c < 256; c += 9 {
			m.Set(r, c)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		m.RowForEach(i&1023, func(int) { n++ })
	}
}
