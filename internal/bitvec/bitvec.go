// Package bitvec provides compact bit-vector utilities used throughout the
// approximate-matching pipeline: per-vertex prototype match vectors (ρ in the
// paper), active vertex/edge sets, and small fixed-width state sets.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length zero; use New to allocate one of a given length.
type Vector struct {
	words []uint64
	n     int
}

// New returns a Vector of n bits, all clear.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Set sets bit i.
func (v *Vector) Set(i int) {
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (v *Vector) Clear(i int) {
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set.
func (v *Vector) Get(i int) bool {
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// SetAll sets every bit.
func (v *Vector) SetAll() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
}

// ClearAll clears every bit.
func (v *Vector) ClearAll() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Count returns the number of set bits.
func (v *Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (v *Vector) Any() bool {
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Or sets v to v|other. The vectors must have equal length.
func (v *Vector) Or(other *Vector) {
	v.checkLen(other)
	for i, w := range other.words {
		v.words[i] |= w
	}
}

// And sets v to v&other. The vectors must have equal length.
func (v *Vector) And(other *Vector) {
	v.checkLen(other)
	for i, w := range other.words {
		v.words[i] &= w
	}
}

// AndNot clears in v every bit set in other.
func (v *Vector) AndNot(other *Vector) {
	v.checkLen(other)
	for i, w := range other.words {
		v.words[i] &^= w
	}
}

// Clone returns an independent copy of v.
func (v *Vector) Clone() *Vector {
	w := make([]uint64, len(v.words))
	copy(w, v.words)
	return &Vector{words: w, n: v.n}
}

// Equal reports whether v and other have the same length and bits.
func (v *Vector) Equal(other *Vector) bool {
	if v.n != other.n {
		return false
	}
	for i, w := range v.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit, in increasing order.
func (v *Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// WordScan walks the non-zero 64-bit words of one bit range of a Vector, with
// the bits outside the range masked off. It is the one range-scanning
// primitive: the kernels' per-neighbour loops drive it directly,
//
//	for ws := v.Words(lo, hi); ws.Next(); {
//		for w := ws.Word; w != 0; w &= w - 1 {
//			i := ws.Base + bits.TrailingZeros64(w)
//			...
//		}
//	}
//
// so the bit loop is the caller's own code on a register — no function value
// is called per set bit — and sparse ranges cost O(words), not O(bits).
// ForEachInRange and CountInRange are this loop with a callback and a
// popcount. A word is read when Next reaches it, so bits the loop body writes
// in words still ahead of the scan are seen, and writes to the current word
// are not.
type WordScan struct {
	// Word is the current word's set bits inside the range; bit b is bit
	// Base+b of the vector. Valid after Next returned true.
	Word uint64
	Base int

	v      *Vector
	lo, hi int
}

// Words returns a scan over the bits [lo, hi) of v; out-of-range ends clamp.
func (v *Vector) Words(lo, hi int) WordScan {
	if lo < 0 {
		lo = 0
	}
	if hi > v.n {
		hi = v.n
	}
	return WordScan{Base: lo&^(wordBits-1) - wordBits, v: v, lo: lo, hi: hi}
}

// Next advances to the next word with a set bit in the range and reports
// whether there is one.
func (ws *WordScan) Next() bool {
	for {
		ws.Base += wordBits
		if ws.Base >= ws.hi {
			return false
		}
		w := ws.v.words[ws.Base/wordBits]
		if d := ws.lo - ws.Base; d > 0 {
			w &= ^uint64(0) << uint(d)
		}
		if d := ws.Base + wordBits - ws.hi; d > 0 {
			w &= ^uint64(0) >> uint(d)
		}
		if w != 0 {
			ws.Word = w
			return true
		}
	}
}

// ForEachInRange calls fn for every set bit i with lo <= i < hi, in
// increasing order. Anything that runs per neighbour drives Words itself.
func (v *Vector) ForEachInRange(lo, hi int, fn func(i int)) {
	for ws := v.Words(lo, hi); ws.Next(); {
		for w := ws.Word; w != 0; w &= w - 1 {
			fn(ws.Base + bits.TrailingZeros64(w))
		}
	}
}

// CountInRange returns the number of set bits i with lo <= i < hi, by
// word-at-a-time popcounts.
func (v *Vector) CountInRange(lo, hi int) int {
	total := 0
	for ws := v.Words(lo, hi); ws.Next(); {
		total += bits.OnesCount64(ws.Word)
	}
	return total
}

// ClearRange clears every bit i with lo <= i < hi, a word at a time. The
// pipeline uses it to drop a deactivated vertex's whole out-slot range.
func (v *Vector) ClearRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > v.n {
		hi = v.n
	}
	if lo >= hi {
		return
	}
	first, last := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if first == last {
		v.words[first] &^= loMask & hiMask
		return
	}
	v.words[first] &^= loMask
	for wi := first + 1; wi < last; wi++ {
		v.words[wi] = 0
	}
	v.words[last] &^= hiMask
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (v *Vector) NextSet(i int) int {
	if i >= v.n {
		return -1
	}
	wi := i / wordBits
	w := v.words[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// Bytes returns the memory footprint of the vector payload in bytes.
func (v *Vector) Bytes() int64 { return int64(len(v.words)) * 8 }

// String renders the vector as a bit string, most significant index last,
// truncated for long vectors.
func (v *Vector) String() string {
	var sb strings.Builder
	limit := v.n
	if limit > 128 {
		limit = 128
	}
	for i := 0; i < limit; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	if limit < v.n {
		fmt.Fprintf(&sb, "...(%d bits)", v.n)
	}
	return sb.String()
}

func (v *Vector) trim() {
	if extra := len(v.words)*wordBits - v.n; extra > 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= ^uint64(0) >> uint(extra)
	}
}

func (v *Vector) checkLen(other *Vector) {
	if v.n != other.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, other.n))
	}
}

// Matrix is a dense 2-D bit matrix: rows of equal width packed contiguously.
// It backs the per-vertex prototype match vectors (ρ): one row per vertex,
// one column per prototype.
type Matrix struct {
	words       []uint64
	rows, cols  int
	wordsPerRow int
}

// NewMatrix returns a rows×cols bit matrix, all clear.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("bitvec: negative matrix dimension")
	}
	wpr := (cols + wordBits - 1) / wordBits
	return &Matrix{words: make([]uint64, rows*wpr), rows: rows, cols: cols, wordsPerRow: wpr}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// Set sets bit (r,c).
func (m *Matrix) Set(r, c int) {
	m.words[r*m.wordsPerRow+c/wordBits] |= 1 << uint(c%wordBits)
}

// Clear clears bit (r,c).
func (m *Matrix) Clear(r, c int) {
	m.words[r*m.wordsPerRow+c/wordBits] &^= 1 << uint(c%wordBits)
}

// Get reports whether bit (r,c) is set.
func (m *Matrix) Get(r, c int) bool {
	return m.words[r*m.wordsPerRow+c/wordBits]&(1<<uint(c%wordBits)) != 0
}

// RowAny reports whether any bit in row r is set.
func (m *Matrix) RowAny(r int) bool {
	row := m.words[r*m.wordsPerRow : (r+1)*m.wordsPerRow]
	for _, w := range row {
		if w != 0 {
			return true
		}
	}
	return false
}

// RowAnyOf reports whether any of the columns listed in cols is set in row r.
func (m *Matrix) RowAnyOf(r int, cols []int) bool {
	for _, c := range cols {
		if m.Get(r, c) {
			return true
		}
	}
	return false
}

// RowCount returns the number of set bits in row r.
func (m *Matrix) RowCount(r int) int {
	row := m.words[r*m.wordsPerRow : (r+1)*m.wordsPerRow]
	c := 0
	for _, w := range row {
		c += bits.OnesCount64(w)
	}
	return c
}

// RowForEach calls fn for each set column in row r, in increasing order.
func (m *Matrix) RowForEach(r int, fn func(c int)) {
	row := m.words[r*m.wordsPerRow : (r+1)*m.wordsPerRow]
	for wi, w := range row {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Equal reports whether m and other have the same shape and bits. The
// comparison is word-level; the differential tests use it to assert
// bit-identical match-vector matrices across kernel schedules.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, w := range m.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// ColCount returns the number of rows with column c set.
func (m *Matrix) ColCount(c int) int {
	n := 0
	for r := 0; r < m.rows; r++ {
		if m.Get(r, c) {
			n++
		}
	}
	return n
}

// Bytes returns the memory footprint of the matrix payload in bytes.
func (m *Matrix) Bytes() int64 { return int64(len(m.words)) * 8 }
