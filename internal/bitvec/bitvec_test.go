package bitvec

import (
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Any() {
		t.Fatal("new vector should be empty")
	}
	v.Set(0)
	v.Set(64)
	v.Set(129)
	if got := v.Count(); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	for _, i := range []int{0, 64, 129} {
		if !v.Get(i) {
			t.Errorf("bit %d should be set", i)
		}
	}
	if v.Get(1) || v.Get(128) {
		t.Error("unexpected bits set")
	}
	v.Clear(64)
	if v.Get(64) {
		t.Error("bit 64 should be clear")
	}
	if got := v.Count(); got != 2 {
		t.Fatalf("Count after clear = %d, want 2", got)
	}
}

func TestVectorSetAllRespectsLength(t *testing.T) {
	v := New(70)
	v.SetAll()
	if got := v.Count(); got != 70 {
		t.Fatalf("Count = %d, want 70", got)
	}
	v.ClearAll()
	if v.Any() {
		t.Fatal("ClearAll left bits set")
	}
}

func TestVectorForEachOrder(t *testing.T) {
	v := New(200)
	want := []int{3, 64, 65, 130, 199}
	for _, i := range want {
		v.Set(i)
	}
	var got []int
	v.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestVectorNextSet(t *testing.T) {
	v := New(150)
	v.Set(10)
	v.Set(100)
	cases := []struct{ from, want int }{
		{0, 10}, {10, 10}, {11, 100}, {100, 100}, {101, -1}, {149, -1},
	}
	for _, c := range cases {
		if got := v.NextSet(c.from); got != c.want {
			t.Errorf("NextSet(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestVectorBooleanOps(t *testing.T) {
	a, b := New(100), New(100)
	a.Set(1)
	a.Set(50)
	b.Set(50)
	b.Set(99)

	or := a.Clone()
	or.Or(b)
	if or.Count() != 3 || !or.Get(1) || !or.Get(50) || !or.Get(99) {
		t.Errorf("Or result wrong: %v", or)
	}
	and := a.Clone()
	and.And(b)
	if and.Count() != 1 || !and.Get(50) {
		t.Errorf("And result wrong: %v", and)
	}
	andNot := a.Clone()
	andNot.AndNot(b)
	if andNot.Count() != 1 || !andNot.Get(1) {
		t.Errorf("AndNot result wrong: %v", andNot)
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone should equal original")
	}
	if a.Equal(b) {
		t.Error("different vectors reported equal")
	}
}

func TestVectorQuickCountMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		v := New(n)
		naive := make(map[int]bool)
		for i := 0; i < 100; i++ {
			b := rng.Intn(n)
			if rng.Intn(2) == 0 {
				v.Set(b)
				naive[b] = true
			} else {
				v.Clear(b)
				delete(naive, b)
			}
		}
		if v.Count() != len(naive) {
			return false
		}
		for b := range naive {
			if !v.Get(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(5, 70)
	m.Set(0, 0)
	m.Set(0, 69)
	m.Set(4, 64)
	if !m.Get(0, 0) || !m.Get(0, 69) || !m.Get(4, 64) {
		t.Fatal("set bits not readable")
	}
	if m.Get(1, 0) {
		t.Fatal("unexpected bit")
	}
	if got := m.RowCount(0); got != 2 {
		t.Fatalf("RowCount(0) = %d, want 2", got)
	}
	if !m.RowAny(4) || m.RowAny(2) {
		t.Fatal("RowAny wrong")
	}
	if got := m.ColCount(64); got != 1 {
		t.Fatalf("ColCount(64) = %d, want 1", got)
	}
	var cols []int
	m.RowForEach(0, func(c int) { cols = append(cols, c) })
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 69 {
		t.Fatalf("RowForEach = %v", cols)
	}
	if !m.RowAnyOf(0, []int{5, 69}) || m.RowAnyOf(0, []int{5, 6}) {
		t.Fatal("RowAnyOf wrong")
	}
	m.Clear(0, 69)
	if m.Get(0, 69) {
		t.Fatal("Clear failed")
	}
}

func TestMatrixRowIsolation(t *testing.T) {
	// Bits at the end of one row must not leak into the next row.
	m := NewMatrix(3, 64)
	m.Set(0, 63)
	if m.Get(1, 0) || m.RowAny(1) {
		t.Fatal("row bleed detected")
	}
}

func TestNextSetBoundaries(t *testing.T) {
	v := New(64)
	if v.NextSet(0) != -1 {
		t.Error("empty vector NextSet != -1")
	}
	v.Set(63)
	if v.NextSet(63) != 63 || v.NextSet(64) != -1 {
		t.Error("word-boundary NextSet wrong")
	}
	if New(0).NextSet(0) != -1 {
		t.Error("zero-length NextSet wrong")
	}
}

func TestVectorStringTruncation(t *testing.T) {
	v := New(300)
	v.Set(0)
	s := v.String()
	if len(s) == 0 || s[0] != '1' {
		t.Errorf("String = %q", s)
	}
	if !strings.Contains(s, "(300 bits)") {
		t.Errorf("long vector not truncated: %q", s)
	}
}

func TestBytesAccounting(t *testing.T) {
	if New(64).Bytes() != 8 || New(65).Bytes() != 16 {
		t.Error("Vector.Bytes wrong")
	}
	if NewMatrix(2, 64).Bytes() != 16 {
		t.Error("Matrix.Bytes wrong")
	}
}

func TestVectorForEachInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		v := New(n)
		naive := make([]bool, n)
		for i := 0; i < n/2; i++ {
			b := rng.Intn(n)
			v.Set(b)
			naive[b] = true
		}
		lo, hi := rng.Intn(n+1), rng.Intn(n+1)
		if rng.Intn(5) == 0 {
			lo, hi = -3, n+7 // out-of-range bounds must clamp
		}
		var got []int
		v.ForEachInRange(lo, hi, func(i int) { got = append(got, i) })
		var want []int
		for i := 0; i < n; i++ {
			if naive[i] && i >= lo && i < hi {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d [%d,%d): got %d bits, want %d", n, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d [%d,%d): got[%d]=%d want %d", n, lo, hi, i, got[i], want[i])
			}
		}
	}
}

// TestWordsTable drives the range-scan primitive over the boundary shapes a
// CSR slot range takes: empty, a single bit, ranges that end one short of, on
// and one past a word boundary, ranges inside one word and straddling two,
// and out-of-range ends, which clamp. Every third bit is set, plus the two
// bits around each range end, so a wrong mask shows as an extra or a missing
// index.
func TestWordsTable(t *testing.T) {
	const n = 200
	cases := []struct {
		name   string
		lo, hi int
	}{
		{"zero bits", 0, 0},
		{"zero bits mid-word", 37, 37},
		{"inverted", 90, 20},
		{"inverted inside one word", 70, 66},
		{"one bit", 0, 1},
		{"one bit at word end", 63, 64},
		{"one bit at word start", 64, 65},
		{"63 bits", 0, 63},
		{"64 bits", 0, 64},
		{"65 bits", 0, 65},
		{"63 bits unaligned", 5, 68},
		{"64 bits unaligned", 5, 69},
		{"65 bits unaligned", 63, 128},
		{"inside one word", 70, 100},
		{"straddles one boundary", 120, 130},
		{"spans three words", 60, 193},
		{"lo clamps", -5, 10},
		{"hi clamps", 190, n + 50},
		{"both clamp", -1 << 20, 1 << 20},
		{"lo past the end", n + 3, n + 70},
		{"hi negative", -9, -2},
	}
	for _, tc := range cases {
		v := New(n)
		for i := 0; i < n; i++ {
			if i%3 == 0 || i == tc.lo-1 || i == tc.lo || i == tc.hi-1 || i == tc.hi {
				v.Set(i)
			}
		}
		var want []int
		for i := 0; i < n; i++ {
			if v.Get(i) && i >= tc.lo && i < tc.hi {
				want = append(want, i)
			}
		}
		var got []int
		for ws := v.Words(tc.lo, tc.hi); ws.Next(); {
			if ws.Word == 0 {
				t.Errorf("%s: Next stopped on an empty word at base %d", tc.name, ws.Base)
			}
			for w := ws.Word; w != 0; w &= w - 1 {
				got = append(got, ws.Base+bits.TrailingZeros64(w))
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s [%d,%d): got %v, want %v", tc.name, tc.lo, tc.hi, got, want)
		}
		if c := v.CountInRange(tc.lo, tc.hi); c != len(want) {
			t.Errorf("%s [%d,%d): CountInRange %d, want %d", tc.name, tc.lo, tc.hi, c, len(want))
		}
	}
	// A zero-length vector has no word to read.
	if ws := New(0).Words(-1, 1); ws.Next() {
		t.Error("empty vector: Next reported a word")
	}
}

func TestMatrixEqual(t *testing.T) {
	a := NewMatrix(5, 70)
	b := NewMatrix(5, 70)
	if !a.Equal(b) {
		t.Fatal("empty matrices should be equal")
	}
	a.Set(3, 65)
	if a.Equal(b) {
		t.Fatal("differing matrices reported equal")
	}
	b.Set(3, 65)
	if !a.Equal(b) {
		t.Fatal("equal matrices reported different")
	}
	if a.Equal(NewMatrix(5, 71)) || a.Equal(NewMatrix(6, 70)) {
		t.Fatal("shape mismatch reported equal")
	}
}

func TestVectorQuickCountInRangeMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		v := New(n)
		for i := 0; i < 100; i++ {
			v.Set(rng.Intn(n))
		}
		for trial := 0; trial < 20; trial++ {
			lo := rng.Intn(n+10) - 5
			hi := lo + rng.Intn(n+10)
			naive := 0
			for i := lo; i < hi; i++ {
				if i >= 0 && i < n && v.Get(i) {
					naive++
				}
			}
			if v.CountInRange(lo, hi) != naive {
				return false
			}
		}
		return v.CountInRange(0, n) == v.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// rangeCases are the [lo, hi) ranges the ranged primitives are pinned on:
// empty ranges, single bits, and both ends on, one short of and one past a
// word boundary, in a vector whose own length (200) is not a word multiple.
var rangeCases = [][2]int{
	{0, 0}, {5, 5}, {64, 64}, {200, 200}, {7, 3},
	{0, 1}, {63, 64}, {64, 65}, {199, 200},
	{0, 63}, {0, 64}, {0, 65}, {1, 63}, {1, 64}, {1, 65},
	{63, 65}, {63, 128}, {64, 128}, {65, 127}, {65, 129},
	{3, 200}, {128, 200}, {0, 200},
}

func TestVectorClearRange(t *testing.T) {
	const n = 200
	for _, c := range rangeCases {
		lo, hi := c[0], c[1]
		v := New(n)
		v.SetAll()
		v.ClearRange(lo, hi)
		for i := 0; i < n; i++ {
			if want := i < lo || i >= hi; v.Get(i) != want {
				t.Fatalf("ClearRange(%d,%d): bit %d = %v, want %v", lo, hi, i, v.Get(i), want)
			}
		}
	}
	// Out-of-bounds ends clamp, as in ForEachInRange and CountInRange.
	v := New(n)
	v.SetAll()
	v.ClearRange(-5, 1000)
	if v.Any() {
		t.Fatal("clamped ClearRange left bits set")
	}
}
