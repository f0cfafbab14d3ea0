package pattern

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// refineColors runs Weisfeiler–Leman style color refinement starting from
// vertex labels and returns a stable coloring. Colors are iso-invariant, so
// they both prune isomorphism search and order cells canonically.
func refineColors(t *Template) []int {
	n := t.NumVertices()
	colors := make([]int, n)
	// Initial colors: rank of (vertex label, sorted incident edge labels)
	// among sorted distinct keys — both are isomorphism invariants.
	keys := make([]string, n)
	for q := 0; q < n; q++ {
		els := make([]int, 0, t.Degree(q))
		for _, r := range t.adj[q] {
			el, _ := t.EdgeLabelBetween(q, r)
			els = append(els, int(el))
		}
		sort.Ints(els)
		keys[q] = fmt.Sprintf("L%d|%v", t.Label(q), els)
	}
	assign := func() bool {
		sorted := append([]string(nil), keys...)
		sort.Strings(sorted)
		rank := make(map[string]int, n)
		for _, k := range sorted {
			if _, ok := rank[k]; !ok {
				rank[k] = len(rank)
			}
		}
		changed := false
		for q := 0; q < n; q++ {
			c := rank[keys[q]]
			if colors[q] != c {
				colors[q] = c
				changed = true
			}
		}
		return changed
	}
	assign()
	for iter := 0; iter < n; iter++ {
		for q := 0; q < n; q++ {
			ncs := make([]int, 0, t.Degree(q))
			for _, r := range t.adj[q] {
				ncs = append(ncs, colors[r])
			}
			sort.Ints(ncs)
			keys[q] = fmt.Sprintf("%d|%v", colors[q], ncs)
		}
		if !assign() {
			break
		}
	}
	return colors
}

// Isomorphic reports whether a and b are isomorphic under a label-preserving
// vertex bijection (same vertex count, labels and adjacency structure).
func Isomorphic(a, b *Template) bool {
	return FindIsomorphism(a, b) != nil
}

// FindIsomorphism returns a label-preserving isomorphism from a's vertices
// to b's vertices (p[q] = image of q), or nil if none exists: the first
// bijection eachIsomorphism visits.
func FindIsomorphism(a, b *Template) []int {
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return nil
	}
	var found []int
	eachIsomorphism(a, b, func(p []int) bool {
		found = append([]int{}, p...)
		return false
	})
	return found
}

// eachIsomorphism is pattern's one backtracking bijection walk, behind
// FindIsomorphism, Automorphisms and CountAutomorphisms. It places a's
// vertices q = 0…n−1 in turn, each onto the unused targets w of b in
// ascending order whose colour, label and degree match q's and whose edges
// to q's already-placed neighbours preserve adjacency and edge labels, and
// calls visit with every complete placement (p[q] = image of q; p is
// reused, so visit copies what it keeps) until visit returns false. a and b
// must have equal vertex and edge counts: an injective map that preserves
// every edge of a is then onto b's edges, hence an isomorphism.
func eachIsomorphism(a, b *Template, visit func(p []int) bool) {
	n := a.NumVertices()
	ca := refineColors(a)
	cb := ca
	if b != a {
		cb = refineColors(b)
	}
	mapping := make([]int, n)
	used := make([]bool, n)
	for i := range mapping {
		mapping[i] = -1
	}
	var solve func(q int) bool
	solve = func(q int) bool {
		if q == n {
			return visit(mapping)
		}
		for w := 0; w < n; w++ {
			if used[w] || cb[w] != ca[q] || a.Label(q) != b.Label(w) || a.Degree(q) != b.Degree(w) {
				continue
			}
			ok := true
			for _, r := range a.adj[q] {
				if m := mapping[r]; m != -1 && !edgeCompatible(a, b, q, r, w, m) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[q] = w
			used[w] = true
			more := solve(q + 1)
			mapping[q] = -1
			used[w] = false
			if !more {
				return false
			}
		}
		return true
	}
	solve(0)
}

// edgeCompatible reports whether mapping template-a edge (q,r) onto
// template-b pair (w,m) preserves both adjacency and edge labels.
func edgeCompatible(a, b *Template, q, r, w, m int) bool {
	la, oka := a.EdgeLabelBetween(q, r)
	lb, okb := b.EdgeLabelBetween(w, m)
	return oka && okb && la == lb
}

// CountAutomorphisms returns the number of label-preserving automorphisms of
// t, used to convert mapping counts to subgraph counts (motif counting).
// Unlike Automorphisms it has no cap: the count is a divisor, so it must be
// exact.
func CountAutomorphisms(t *Template) int64 {
	var count int64
	eachIsomorphism(t, t, func([]int) bool {
		count++
		return true
	})
	return count
}

// maxCanonicalCost bounds the permutations Canonical may enumerate (the
// product of colour-cell factorials, e.g. n! for an all-same-label clique).
// Canonical runs on the request path of every result-cache lookup, so the
// bound is sized for sub-second worst-case admission (~4µs per enumerated
// permutation). Costlier templates are merely uncacheable: callers run them
// under the client's own numbering, and correctness is unaffected.
const maxCanonicalCost = 1 << 16

// Canonical is the result caches' admission pass (amatchd's /match and
// amatch's batch mode): it returns t's canonical form (as CanonicalForm)
// and canonical key (as CanonicalKey; the key of t is the key of its form),
// or ok=false when t's colour cells allow more than maxCanonicalCost
// permutations. It refines colours once and runs the canonical search once,
// building both results from the one permutation that search finds.
func Canonical(t *Template) (form *Template, key string, ok bool) {
	cells := colorCells(t)
	if cellCost(cells) > maxCanonicalCost {
		return nil, "", false
	}
	key, perm := canonicalize(t, cells, true)
	form, _ = relabel(t, perm)
	return form, key, true
}

// CanonicalCode returns a string that is identical for isomorphic templates
// and distinct for non-isomorphic ones. It canonicalizes by color-refined
// cell ordering followed by exhaustive permutation within cells, taking the
// lexicographically smallest (labels, adjacency) encoding. Templates are
// small, so this is fast in practice.
//
// CanonicalCode deliberately ignores mandatory-edge flags: prototype
// deduplication folds structurally identical variants regardless of which
// literal edges are pinned (mandatory flags constrain generation, not
// matching). Callers keying caches across *different base templates* must
// use CanonicalKey instead, which does encode them.
func CanonicalCode(t *Template) string {
	code, _ := canonicalize(t, colorCells(t), false)
	return code
}

// CanonicalKey returns a cache key that fully identifies a template up to
// label-preserving isomorphism: the CanonicalCode extended with a canonical
// mandatory-edge section. Two templates share a key iff some vertex
// bijection preserves labels, adjacency, edge labels AND mandatory flags —
// exactly the condition under which prototype generation (and hence every
// match result) coincides. CanonicalCode alone collides for templates that
// differ only in which edges are mandatory, which would silently poison a
// result cache.
func CanonicalKey(t *Template) string {
	code, _ := canonicalize(t, colorCells(t), true)
	return code
}

// CanonicalForm returns the canonically relabeled copy of t (same key for
// every isomorphic input, per CanonicalKey's equivalence) together with the
// relabeling: toCanon[q] is the canonical index of t's vertex q. Running a
// query on the canonical form makes pipeline output byte-identical across
// isomorphic submissions, which is what lets cross-query result caches
// translate hits through the isomorphism trivially.
func CanonicalForm(t *Template) (*Template, []int) {
	_, perm := canonicalize(t, colorCells(t), true)
	return relabel(t, perm)
}

// CanonicalCost returns the number of permutations canonicalization must
// enumerate (the product of color-cell factorials) — e.g. n! for a large
// all-wildcard clique. Canonical declines templates whose cost exceeds its
// admission cap, so untrusted templates need not call this first.
func CanonicalCost(t *Template) float64 {
	return cellCost(colorCells(t))
}

// colorCells refines t's colours and groups its vertices into cells: one
// cell per colour in ascending colour order, each cell's vertices
// ascending. refineColors' colours are ranks of sorted iso-invariant keys,
// so the cell order is canonical across isomorphic templates. It is the one
// partition both the cost bound and the canonical search read.
func colorCells(t *Template) [][]int {
	colors := refineColors(t)
	order := make([]int, 0, len(colors)) // the cells' one backing array
	cells := make([][]int, slices.Max(colors)+1)
	for c := range cells {
		lo := len(order)
		for q, qc := range colors {
			if qc == c {
				order = append(order, q)
			}
		}
		cells[c] = order[lo:len(order):len(order)]
	}
	return cells
}

// cellCost is the number of cell-respecting permutations of cells: the
// product of the cells' factorials.
func cellCost(cells [][]int) float64 {
	cost := 1.0
	for _, cell := range cells {
		for f := 2; f <= len(cell); f++ {
			cost *= float64(f)
		}
	}
	return cost
}

// relabel returns the copy of t whose vertex pos is t's vertex perm[pos],
// with its edges sorted by endpoints, and the inverse map toCanon[q] = pos.
func relabel(t *Template, perm []int) (*Template, []int) {
	n := t.NumVertices()
	toCanon := make([]int, n)
	for pos, q := range perm {
		toCanon[q] = pos
	}
	labels := make([]Label, n)
	for q, l := range t.labels {
		labels[toCanon[q]] = l
	}
	// Relabel, then sort edges by endpoints so the form is independent of
	// the submission's edge ordering (edge indices are load-bearing: they
	// define prototype edge-mask bits).
	type ce struct {
		e    Edge
		l    Label
		mand bool
	}
	ces := make([]ce, len(t.edges))
	for i, e := range t.edges {
		ces[i] = ce{normEdge(toCanon[e.I], toCanon[e.J]), t.EdgeLabel(i), t.mandatory[i]}
	}
	sort.Slice(ces, func(i, j int) bool {
		if ces[i].e.I != ces[j].e.I {
			return ces[i].e.I < ces[j].e.I
		}
		return ces[i].e.J < ces[j].e.J
	})
	edges := make([]Edge, len(ces))
	mand := make([]bool, len(ces))
	var elabels []Label
	if t.edgeLabels != nil {
		elabels = make([]Label, len(ces))
	}
	for i, c := range ces {
		edges[i] = c.e
		mand[i] = c.mand
		if elabels != nil {
			elabels[i] = c.l
		}
	}
	ct, err := NewEdgeLabeled(labels, edges, elabels, mand)
	if err != nil {
		// Relabeling a valid template cannot invalidate it.
		panic(fmt.Sprintf("pattern: canonical relabeling failed: %v", err))
	}
	return ct, toCanon
}

// canonicalize computes the lexicographically smallest encoding of t over
// the vertex orders that keep cells (colorCells' partition of t) in order,
// and the permutation achieving it (perm[pos] = original vertex). With
// withMandatory set, the encoding carries a trailing mandatory-bit section;
// because every candidate encoding has the same number of edge terminators,
// no base encoding is a proper prefix of another, so the extended minimum's
// base section still equals CanonicalCode — the extension only refines ties
// and distinguishes mandatory-differing templates.
func canonicalize(t *Template, cells [][]int, withMandatory bool) (string, []int) {
	n := t.NumVertices()
	perm := make([]int, 0, n) // perm[pos] = original vertex
	best := ""
	var bestPerm []int

	encode := func() string {
		pos := make([]int, n) // original vertex -> position
		for p, q := range perm {
			pos[q] = p
		}
		var sb strings.Builder
		for _, q := range perm {
			fmt.Fprintf(&sb, "%d,", t.Label(q))
		}
		sb.WriteByte('|')
		type pe struct {
			a, b int
			l    Label
			mand bool
		}
		pes := make([]pe, 0, len(t.edges))
		for i, e := range t.edges {
			a, b := pos[e.I], pos[e.J]
			if a > b {
				a, b = b, a
			}
			pes = append(pes, pe{a, b, t.EdgeLabel(i), t.mandatory[i]})
		}
		sort.Slice(pes, func(i, j int) bool {
			if pes[i].a != pes[j].a {
				return pes[i].a < pes[j].a
			}
			return pes[i].b < pes[j].b
		})
		for _, e := range pes {
			fmt.Fprintf(&sb, "%d-%d:%d;", e.a, e.b, e.l)
		}
		if withMandatory {
			sb.WriteString("|m")
			for _, e := range pes {
				if e.mand {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
		}
		return sb.String()
	}

	var rec func(ci int)
	rec = func(ci int) {
		if ci == len(cells) {
			code := encode()
			if best == "" || code < best {
				best = code
				bestPerm = append(bestPerm[:0], perm...)
			}
			return
		}
		cell := cells[ci]
		permuteCell(cell, func(orderedCell []int) {
			perm = append(perm, orderedCell...)
			rec(ci + 1)
			perm = perm[:len(perm)-len(orderedCell)]
		})
	}
	rec(0)
	return best, bestPerm
}

// permuteCell calls fn with every permutation of cell, which is not empty
// (Heap's algorithm on a copy).
func permuteCell(cell []int, fn func([]int)) {
	c := append([]int(nil), cell...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(c)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				c[i], c[k-1] = c[k-1], c[i]
			} else {
				c[0], c[k-1] = c[k-1], c[0]
			}
		}
	}
	rec(len(c))
}
