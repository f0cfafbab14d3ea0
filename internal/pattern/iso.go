package pattern

import (
	"fmt"
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
	code, _ := canonicalize(t, false)
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
	code, _ := canonicalize(t, true)
	return code
}

// CanonicalForm returns the canonically relabeled copy of t (same key for
// every isomorphic input, per CanonicalKey's equivalence) together with the
// relabeling: toCanon[q] is the canonical index of t's vertex q. Running a
// query on the canonical form makes pipeline output byte-identical across
// isomorphic submissions, which is what lets cross-query result caches
// translate hits through the isomorphism trivially.
func CanonicalForm(t *Template) (*Template, []int) {
	_, perm := canonicalize(t, true) // perm[pos] = original vertex
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

// CanonicalCost estimates the number of permutations canonicalization must
// enumerate (the product of color-cell factorials). Callers canonicalizing
// untrusted templates at admission should skip templates whose cost exceeds
// their latency budget — e.g. a large all-wildcard clique degenerates to n!.
func CanonicalCost(t *Template) float64 {
	colors := refineColors(t)
	sizes := make(map[int]int)
	for _, c := range colors {
		sizes[c]++
	}
	cost := 1.0
	for _, sz := range sizes {
		for f := 2; f <= sz; f++ {
			cost *= float64(f)
			if cost > 1e18 {
				return cost
			}
		}
	}
	return cost
}

// canonicalize computes the lexicographically smallest cell-respecting
// encoding of t and the permutation achieving it (perm[pos] = original
// vertex). With withMandatory set, the encoding carries a trailing
// mandatory-bit section; because every candidate encoding has the same
// number of edge terminators, no base encoding is a proper prefix of
// another, so the extended minimum's base section still equals
// CanonicalCode — the extension only refines ties and distinguishes
// mandatory-differing templates.
func canonicalize(t *Template, withMandatory bool) (string, []int) {
	n := t.NumVertices()
	colors := refineColors(t)
	// Group vertices into cells ordered by an iso-invariant cell key:
	// (color histogram rank). Colors from refineColors are already ranks of
	// sorted invariant keys, hence canonical across isomorphic templates.
	cells := make(map[int][]int)
	var cellIDs []int
	for q := 0; q < n; q++ {
		if _, ok := cells[colors[q]]; !ok {
			cellIDs = append(cellIDs, colors[q])
		}
		cells[colors[q]] = append(cells[colors[q]], q)
	}
	sort.Ints(cellIDs)

	perm := make([]int, 0, n) // perm[pos] = original vertex
	best := ""
	var bestPerm []int

	var encode func() string
	encode = func() string {
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
		var pes []pe
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
		if ci == len(cellIDs) {
			code := encode()
			if best == "" || code < best {
				best = code
				bestPerm = append(bestPerm[:0], perm...)
			}
			return
		}
		cell := cells[cellIDs[ci]]
		permuteCell(cell, func(orderedCell []int) {
			perm = append(perm, orderedCell...)
			rec(ci + 1)
			perm = perm[:len(perm)-len(orderedCell)]
		})
	}
	rec(0)
	return best, bestPerm
}

// permuteCell calls fn with every permutation of cell (Heap's algorithm on a
// copy).
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
	if len(c) == 0 {
		fn(c)
		return
	}
	rec(len(c))
}
