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
	eachIsomorphism(t, t, func(p []int) bool {
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

// RestrictionsFor derives the symmetry-breaking restrictions for a template
// over n vertices from its automorphism group auts (as Automorphisms returns
// it) via the stabilizer chain. A trivial group, or a nil one over
// maxAutomorphisms, yields no restrictions. Taking the group rather than the
// template lets callers that also need it (orbit expansion during
// enumeration) enumerate it once.
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
