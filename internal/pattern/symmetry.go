package pattern

// Automorphism symmetry breaking (GraphPi-style restriction sets). A
// template with a non-trivial automorphism group makes the backtracking
// enumerator produce every match |Aut(T)| times — once per automorphic
// relabeling of the same vertex set. A restriction set is a small list of
// order constraints over template vertices (match[A] < match[B] on graph
// vertex ids) with the defining property that every orbit of matches under
// Aut(T) contains EXACTLY ONE member satisfying all restrictions. Enforcing
// them during enumeration therefore yields one canonical representative per
// orbit; multiplying the restricted count by |Aut(T)| (or composing each
// representative with every automorphism) recovers the full mapping set.
//
// The construction is the classical stabilizer-chain scheme: pick the
// smallest vertex v moved by the current group, emit v < u for every other
// u in v's orbit, and recurse into the stabilizer of v. Correctness: for
// any injective assignment f there is exactly one g in the group such that
// f∘g assigns the orbit's minimum graph vertex to v (graph images of an
// orbit are permuted among themselves by any group element), and the
// argument repeats inside the stabilizer.

// Restriction is one symmetry-breaking order constraint: any accepted match
// must satisfy match[A] < match[B] (comparing background-graph vertex ids).
type Restriction struct {
	A, B int
}

// maxAutomorphisms caps the materialized group size. Search templates are
// small (≤ 64 vertices by construction, a handful in practice), so any
// group larger than this signals a pathological input — symmetry breaking
// is then skipped (correct, merely slower) rather than risking an
// exponential group enumeration.
const maxAutomorphisms = 1 << 16

// Automorphisms returns every label-preserving automorphism of t (including
// the identity), each as a vertex permutation p with p[q] = image of q.
// It returns nil when the group exceeds maxAutomorphisms.
func Automorphisms(t *Template) [][]int {
	var out [][]int
	overflow := false
	eachAutomorphism(t, func(p []int) bool {
		if len(out) >= maxAutomorphisms {
			overflow = true
			return false
		}
		out = append(out, append([]int(nil), p...))
		return true
	})
	if overflow {
		return nil
	}
	return out
}

// eachAutomorphism is the backtracking walk behind Automorphisms and
// CountAutomorphisms: it calls visit with every label-preserving
// automorphism of t (p[q] = image of q; p is reused, so visit copies what it
// keeps) until visit returns false.
func eachAutomorphism(t *Template, visit func(p []int) bool) {
	n := t.NumVertices()
	colors := refineColors(t)
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
			if used[w] || colors[w] != colors[q] || t.Label(q) != t.Label(w) || t.Degree(q) != t.Degree(w) {
				continue
			}
			ok := true
			for _, r := range t.adj[q] {
				if m := mapping[r]; m != -1 && !edgeCompatible(t, t, q, r, w, m) {
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

// RestrictionSet derives the symmetry-breaking restrictions for t from its
// automorphism group via the stabilizer chain, together with the group size.
// A trivial group (or an over-large one, see Automorphisms) yields no
// restrictions and aut = 1 so callers multiply counts by exactly the factor
// the restrictions divided out.
func RestrictionSet(t *Template) (restrictions []Restriction, aut int64) {
	auts := Automorphisms(t)
	if len(auts) <= 1 {
		return nil, 1
	}
	return RestrictionsFor(t.NumVertices(), auts), int64(len(auts))
}

// RestrictionsFor derives the restriction set from an already-enumerated
// automorphism group over n template vertices (see RestrictionSet); callers
// that also need the group itself (orbit expansion during enumeration) use
// this to avoid enumerating it twice.
func RestrictionsFor(n int, auts [][]int) []Restriction {
	if len(auts) <= 1 {
		return nil
	}
	var restrictions []Restriction
	group := auts
	for len(group) > 1 {
		// Smallest vertex moved by any element of the current group.
		v := -1
		for q := 0; q < n && v == -1; q++ {
			for _, p := range group {
				if p[q] != q {
					v = q
					break
				}
			}
		}
		if v == -1 {
			break // identity-only (defensive; len check should have caught it)
		}
		inOrbit := make([]bool, n)
		for _, p := range group {
			inOrbit[p[v]] = true
		}
		for u := 0; u < n; u++ {
			if u != v && inOrbit[u] {
				restrictions = append(restrictions, Restriction{A: v, B: u})
			}
		}
		// Recurse into the stabilizer of v.
		var stab [][]int
		for _, p := range group {
			if p[v] == v {
				stab = append(stab, p)
			}
		}
		group = stab
	}
	return restrictions
}
