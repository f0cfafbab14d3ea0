package pattern

// Cycle is a simple cycle in a template, listed as the ordered vertex
// sequence q0, q1, ..., q(L-1) with an implicit closing edge q(L-1)->q0.
// q0 is the smallest vertex index on the cycle.
type Cycle []int

// SimpleCycles enumerates every simple cycle of the template, each exactly
// once (orientation-normalized). Templates are tiny, so a DFS with the
// smallest-vertex anchoring rule is ample: a cycle is reported from its
// minimum vertex s, and only in the orientation where the second vertex is
// smaller than the last.
func (t *Template) SimpleCycles() []Cycle {
	var cycles []Cycle
	n := t.NumVertices()
	onPath := make([]bool, n)
	var path []int

	var dfs func(s, q int)
	dfs = func(s, q int) {
		onPath[q] = true
		path = append(path, q)
		for _, r := range t.adj[q] {
			if r == s {
				if len(path) >= 3 && path[1] < path[len(path)-1] {
					cycles = append(cycles, append(Cycle(nil), path...))
				}
				continue
			}
			if r < s || onPath[r] {
				continue
			}
			dfs(s, r)
		}
		path = path[:len(path)-1]
		onPath[q] = false
	}
	for s := 0; s < n; s++ {
		dfs(s, s)
	}
	return cycles
}

// HasCycle reports whether the template contains any cycle.
func (t *Template) HasCycle() bool { return !t.IsTree() }

// EdgeMonocyclic reports whether no two distinct simple cycles share an
// edge. Per the paper (Fig. 2), templates that are NOT edge-monocyclic need
// a template-driven search (TDS) constraint in addition to cycle
// constraints.
func (t *Template) EdgeMonocyclic() bool {
	cycles := t.SimpleCycles()
	use := make(map[Edge]int)
	for _, c := range cycles {
		for i := range c {
			e := normEdge(c[i], c[(i+1)%len(c)])
			use[e]++
			if use[e] > 1 {
				return false
			}
		}
	}
	return true
}

// CyclesSharingEdges returns up to limit pairs of cycle indices (into
// SimpleCycles's result) that share at least one edge, in (i, j) order;
// these are the cycle pairs the paper combines into TDS constraints (Fig. 2
// top). Dense templates have millions of such pairs, so the scan stops at
// the limit.
func CyclesSharingEdges(cycles []Cycle, limit int) [][2]int {
	edgeSets := make([]map[Edge]bool, len(cycles))
	edgeSet := func(i int) map[Edge]bool {
		if edgeSets[i] == nil {
			c := cycles[i]
			edgeSets[i] = make(map[Edge]bool, len(c))
			for j := range c {
				edgeSets[i][normEdge(c[j], c[(j+1)%len(c)])] = true
			}
		}
		return edgeSets[i]
	}
	var pairs [][2]int
	for i := 0; i < len(cycles) && len(pairs) < limit; i++ {
		for j := i + 1; j < len(cycles) && len(pairs) < limit; j++ {
			for e := range edgeSet(i) {
				if edgeSet(j)[e] {
					pairs = append(pairs, [2]int{i, j})
					break
				}
			}
		}
	}
	return pairs
}
