// Package constraint turns a search template (or prototype) into the set of
// constraints that vertices and edges participating in a match must meet
// (§3 of the paper, following PruneJuice):
//
//   - local constraints: a vertex must carry a template label and have
//     active neighbors covering the labeled adjacency of its template
//     vertex, with multiplicities;
//   - non-local constraints: directed walks in the template — cycle
//     constraints (CC), path constraints (PC) between repeated labels, and
//     template-driven search (TDS) walks over the union of two edge-sharing
//     cycles — checked by token passing in the background graph. They only
//     prune; exact verification is the engines' seeded backtracking.
//
// Plan is the one walk planner of both engines: it generates a prototype's
// walks, orients each to a cheap initiator and orders them cheapest first.
// Each walk carries a canonical ID; prototypes that share a substructure
// share the ID, and an ID names one walk in every plan, which is what
// enables work recycling (Obs. 2).
package constraint

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"approxmatch/internal/pattern"
)

// Label aliases the shared label type.
type Label = pattern.Label

// Kind classifies a non-local constraint walk.
type Kind int

// Walk kinds, in increasing verification strength.
const (
	// CC is a cycle constraint: the walk returns to its initiator.
	CC Kind = iota
	// PC is a path constraint between two template vertices with the same
	// label: the endpoint must be a distinct graph vertex.
	PC
	// TDS is a template-driven search walk covering the union of two
	// edge-sharing cycles (Fig. 2's non-edge-monocyclic case).
	TDS
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case CC:
		return "CC"
	case PC:
		return "PC"
	case TDS:
		return "TDS"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Walk is a non-local constraint: a sequence of template vertices in which
// consecutive entries are adjacent in the prototype. A token walks the
// background graph along active edges mirroring the sequence; template
// vertices revisited by the walk must map to the same graph vertex, and
// distinct template vertices to distinct graph vertices.
type Walk struct {
	Kind Kind
	// Seq lists template vertex indices; Seq[0] is the initiator. For CC
	// walks the final entry equals Seq[0] (explicit closure).
	Seq []int
	// ID is the canonical identity of this constraint, shared across
	// prototypes containing the same substructure.
	ID string
}

// Len returns the number of hops (edges traversed) in the walk.
func (w *Walk) Len() int { return len(w.Seq) - 1 }

// String renders the walk for debugging.
func (w *Walk) String() string {
	parts := make([]string, len(w.Seq))
	for i, q := range w.Seq {
		parts[i] = fmt.Sprintf("%d", q)
	}
	return fmt.Sprintf("%s[%s]", w.Kind, strings.Join(parts, ">"))
}

// LocalSufficient reports whether the LCC fixpoint alone is exact for t: a
// tree with all-distinct labels (the paper's Fig. 2 discussion), no wildcard
// vertex label (a wildcard vertex can collide with any other template
// vertex, so injectivity is no longer implied by distinct labels) and no
// concrete edge-label requirement (local checking does not evaluate edge
// labels). Every other template takes exact verification.
func LocalSufficient(t *pattern.Template) bool {
	if !t.IsTree() || t.HasRepeatedLabels() || t.HasWildcard() {
		return false
	}
	labels, _ := t.EdgeLabelSet()
	return len(labels) == 0
}

// maxCombinedCyclePairs caps the number of edge-sharing cycle pairs turned
// into combined-cycle TDS pruning walks for dense templates (the paper
// selects additional constraints heuristically; see also Tripoul et al.).
const maxCombinedCyclePairs = 8

// generate returns the non-local constraint set K0 for a prototype, in
// generation order: one CC per simple cycle, one combined TDS per pair of
// edge-sharing cycles among the first maxCombinedCyclePairs (skipping a walk
// an earlier pair already produced: different pairs often cover one union,
// as a diamond's three cycles do), and one PC per repeated-label vertex pair.
func generate(t *pattern.Template) []*Walk {
	cycles := t.SimpleCycles()
	walks := make([]*Walk, 0, len(cycles))
	for _, c := range cycles {
		walks = append(walks, cycleWalk(t, c))
	}
	for _, pr := range pattern.CyclesSharingEdges(cycles, maxCombinedCyclePairs) {
		if w := combinedCycleWalk(t, cycles[pr[0]], cycles[pr[1]]); w != nil && !containsWalk(walks[len(cycles):], w) {
			walks = append(walks, w)
		}
	}
	for _, qs := range sortedMultiplicity(t) {
		for i := 0; i < len(qs); i++ {
			for j := i + 1; j < len(qs); j++ {
				if w := pathWalk(t, qs[i], qs[j]); w != nil {
					walks = append(walks, w)
				}
			}
		}
	}
	return walks
}

// containsWalk reports whether walks holds one with w's Kind and Seq.
func containsWalk(walks []*Walk, w *Walk) bool {
	for _, o := range walks {
		if o.Kind == w.Kind && slices.Equal(o.Seq, w.Seq) {
			return true
		}
	}
	return false
}

// sortedMultiplicity returns repeated-label vertex groups in deterministic
// order.
func sortedMultiplicity(t *pattern.Template) [][]int {
	mult := t.LabelMultiplicity()
	labels := make([]Label, 0, len(mult))
	for l, qs := range mult {
		if len(qs) > 1 {
			labels = append(labels, l)
		}
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	groups := make([][]int, 0, len(labels))
	for _, l := range labels {
		groups = append(groups, mult[l])
	}
	return groups
}

// cycleWalk builds the CC walk for a simple cycle, canonicalized so the
// smallest vertex leads and the smaller neighbor comes second.
func cycleWalk(t *pattern.Template, c pattern.Cycle) *Walk {
	seq := canonicalCycle(c)
	seq = append(seq, seq[0])
	return &Walk{Kind: CC, Seq: seq, ID: walkID(t, CC, seq)}
}

// canonicalCycle rotates and possibly reflects the cycle so that the
// minimum vertex is first and its smaller cycle-neighbor second.
func canonicalCycle(c pattern.Cycle) []int {
	n := len(c)
	minPos := 0
	for i, q := range c {
		if q < c[minPos] {
			minPos = i
		}
	}
	rot := make([]int, n)
	for i := 0; i < n; i++ {
		rot[i] = c[(minPos+i)%n]
	}
	if rot[n-1] < rot[1] {
		// reflect: keep rot[0], reverse the rest
		ref := make([]int, n)
		ref[0] = rot[0]
		for i := 1; i < n; i++ {
			ref[i] = rot[n-i]
		}
		rot = ref
	}
	return rot
}

// pathWalk builds the PC walk between two same-label vertices along a
// shortest template path (BFS); nil when a == b.
func pathWalk(t *pattern.Template, a, b int) *Walk {
	if a == b {
		return nil
	}
	if a > b {
		a, b = b, a
	}
	prev := bfsParents(t, a)
	if prev[b] == -2 {
		return nil // unreachable; cannot happen for connected templates
	}
	var seq []int
	for q := b; q != -1; q = prev[q] {
		seq = append(seq, q)
	}
	// seq is b..a; reverse to a..b.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return &Walk{Kind: PC, Seq: seq, ID: walkID(t, PC, seq)}
}

func bfsParents(t *pattern.Template, src int) []int {
	prev := make([]int, t.NumVertices())
	for i := range prev {
		prev[i] = -2
	}
	prev[src] = -1
	queue := []int{src}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, r := range t.Neighbors(q) {
			if prev[r] == -2 {
				prev[r] = q
				queue = append(queue, r)
			}
		}
	}
	return prev
}

// combinedCycleWalk builds a TDS pruning walk covering the union of two
// edge-sharing cycles (Fig. 2, top): an edge-covering walk of the two-cycle
// substructure, rooted at a vertex on a shared edge so the token verifies
// both closures consistently.
func combinedCycleWalk(t *pattern.Template, c1, c2 pattern.Cycle) *Walk {
	edges := make(map[pattern.Edge]bool)
	adj := make(map[int][]int)
	addCycle := func(c pattern.Cycle) {
		for i := range c {
			a, b := c[i], c[(i+1)%len(c)]
			if a > b {
				a, b = b, a
			}
			e := pattern.Edge{I: a, J: b}
			if !edges[e] {
				edges[e] = true
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	addCycle(c1)
	addCycle(c2)
	// Root: a vertex shared by both cycles.
	root := -1
	in1 := make(map[int]bool, len(c1))
	for _, q := range c1 {
		in1[q] = true
	}
	for _, q := range c2 {
		if in1[q] {
			root = q
			break
		}
	}
	if root == -1 {
		return nil
	}
	for q := range adj {
		sort.Ints(adj[q])
	}
	covered := make(map[pattern.Edge]bool, len(edges))
	seq := []int{root}
	var dfs func(q int)
	dfs = func(q int) {
		for _, r := range adj[q] {
			a, b := q, r
			if a > b {
				a, b = b, a
			}
			e := pattern.Edge{I: a, J: b}
			if covered[e] {
				continue
			}
			covered[e] = true
			if containsInt(seq, r) {
				seq = append(seq, r, q)
				continue
			}
			seq = append(seq, r)
			dfs(r)
			seq = append(seq, q)
		}
	}
	dfs(root)
	if len(covered) != len(edges) {
		return nil // should not happen: the union of two sharing cycles is connected
	}
	return &Walk{Kind: TDS, Seq: seq, ID: walkID(t, TDS, seq)}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// walkID canonically encodes a walk's semantic content: the kind, the
// vertex-label sequence, the revisit structure (walk vertices renumbered by
// first appearance, so raw template indices cancel out) and the per-hop
// edge-label requirements. Two walks get one ID exactly when they impose
// the same constraint on the background graph — whether they come from two
// prototypes of one template (classic work recycling, Obs. 2) or from
// different queries sharing a cross-query NLCC store. Index-only encodings
// collide across templates (every triangle would be "CC:0.1.2.0" regardless
// of labels); such collisions are correctness-neutral — pruning keeps a
// superset and exact verification restores precision — but they waste the
// shared store on satisfied-sets no other query can reuse.
func walkID(t *pattern.Template, k Kind, seq []int) string {
	// canon[q] is 1 + q's first-appearance number, 0 while q is unseen.
	var canon [pattern.MaxVertices]uint8
	seen := uint8(0)
	buf := make([]byte, 0, 4+12*len(seq))
	buf = append(buf, k.String()...)
	buf = append(buf, ':')
	for i, q := range seq {
		if canon[q] == 0 {
			seen++
			canon[q] = seen
		}
		if i > 0 {
			el, _ := t.EdgeLabelBetween(seq[i-1], q)
			buf = append(buf, '-')
			buf = strconv.AppendUint(buf, uint64(el), 10)
			buf = append(buf, '>')
		}
		buf = strconv.AppendUint(buf, uint64(canon[q]-1), 10)
		buf = append(buf, '@')
		buf = strconv.AppendUint(buf, uint64(t.Label(q)), 10)
	}
	return string(buf)
}
