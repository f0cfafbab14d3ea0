package core

import (
	"math/bits"
	"sync"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// Match counting enumerates the template's core and multiplies in its tails.
// A pendant tree — template vertices hanging off the rest by one edge, peeled
// leaf by leaf — contributes a factor that depends only on its parent's
// image, so instead of descending into it for every partial match the
// counting run precomputes that factor for every graph vertex in one
// bottom-up pass over the active slots (GraphPi's observation that a count
// never needs to descend into loops whose result is a product).

// countMatches enumerates every match of t within the active state and
// returns the total number of distinct vertex mappings. With symmetry
// breaking enabled it explores one representative per automorphism orbit
// and multiplies by the orbit size; with a tail fold it enumerates the
// unfolded vertices and multiplies by the folded trees' weights at the last
// order position — the result is identical either way.
func countMatches(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, opts kernelOpts) int64 {
	p := planCount(s, omega, t, opts, cc)
	e := newEnumerator(s, omega, t, cc, m)
	e.matchOrder = newMatchOrder(t, p.order)
	e.restrict(p.auts, p.restr)
	e.fold = p.fold
	if !opts.noGuards {
		e.guards = newGuardStore(t.NumVertices(), s.Graph().NumVertices(), cc)
	}
	e.run(0, nil)
	if p.fold != nil {
		p.fold.release(s, omega)
	}
	return e.count * e.aut
}

// countPlan is the shape of one counting run: the order its enumerated
// vertices are assigned in, the symmetry it breaks, and the pendant trees it
// folds (nil when nothing folds, in which case the order is exactly
// enumerateMatches').
type countPlan struct {
	order []int
	auts  [][]int
	restr []pattern.Restriction
	fold  *tailFold
}

// tailFold is a counting run's folded pendant trees. weight[q][v] is S_q(v):
// the number of ways the tree rooted at folded vertex q completes when q's
// parent is mapped to graph vertex v — the sum, over active neighbours x of v
// with q ∈ ω(x) joined to v by an edge the template edge accepts, of the
// product of S_c(x) over q's children c.
type tailFold struct {
	folded []int            // folded template vertices, children before parents
	parent []int            // template vertex -> its parent in the peel, -1 if never peeled
	tops   []int            // folded vertices whose parent is enumerated
	images []graph.VertexID // see foldable: a superset of the folded vertices' images
	weight [][]int64        // indexed by template vertex, then by graph vertex
}

// planCount decides countMatches' plan. Template vertices other than the
// root that hang off the rest by exactly one edge are peeled, repeatedly, so
// tails of any length and stars peel too. A peeled vertex q folds when
//   - no symmetry restriction touches it (restrictions then bind enumerated
//     images only, so the orbit multiplier stays exact),
//   - every active x with q ∈ ω(x) has ω(x) = {q}: no image of q can then be
//     the image of another template vertex, so injectivity cannot fail, and
//   - all of its children fold (an enumerated child needs its parent's image).
//
// The enumerated vertices are the unpeeled core in orderFrom's order, then
// the peeled vertices that did not fold, parents first. The weight arrays are
// sized by the state's graph and charged to the budget; when the charge is
// refused nothing folds, which costs speed and never correctness.
func planCount(s *State, omega candidateSet, t *pattern.Template, opts kernelOpts, cc *CancelCheck) countPlan {
	var p countPlan
	if !opts.noSymmetry {
		p.auts, p.restr = symmetryOf(t)
	}
	root := rootVertex(t)
	peel, parent := peelTails(t, root)
	folded, images := foldable(s, omega, peel, parent, p.restr)
	if folded == 0 || !cc.TryChargeBytes(8*int64(s.g.NumVertices())*int64(bits.OnesCount64(folded))) {
		p.order = orderFrom(t, []int{root}, nil)
		return p
	}
	f := &tailFold{parent: parent, images: images}
	skip := make([]bool, t.NumVertices())
	for _, q := range peel {
		skip[q] = true
		if folded&(1<<uint(q)) == 0 {
			continue
		}
		f.folded = append(f.folded, q)
		if folded&(1<<uint(parent[q])) == 0 {
			f.tops = append(f.tops, q)
		}
	}
	f.weigh(s, omega, t, cc)
	p.fold = f
	p.order = orderFrom(t, []int{root}, skip)
	for i := len(peel) - 1; i >= 0; i-- {
		if q := peel[i]; folded&(1<<uint(q)) == 0 {
			p.order = append(p.order, q)
		}
	}
	return p
}

// peelTails repeatedly removes the template vertices other than root that
// have exactly one remaining neighbour. It returns them in removal order —
// every vertex after its children — and each one's parent, the neighbour it
// hung from (-1 for vertices never peeled). A tree peels down to root.
func peelTails(t *pattern.Template, root int) (peel, parent []int) {
	n := t.NumVertices()
	deg := make([]int, n)
	parent = make([]int, n)
	var leaves []int
	for q := range deg {
		deg[q], parent[q] = t.Degree(q), -1
		if q != root && deg[q] == 1 {
			leaves = append(leaves, q)
		}
	}
	gone := make([]bool, n)
	for len(leaves) > 0 {
		q := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		gone[q] = true
		peel = append(peel, q)
		for _, r := range t.Neighbors(q) {
			if gone[r] {
				continue
			}
			parent[q] = r
			if deg[r]--; r != root && deg[r] == 1 {
				leaves = append(leaves, r)
			}
		}
	}
	return peel, parent
}

// foldable returns the mask of peeled vertices that fold (see planCount) and
// the active vertices whose ω is a single unrestricted peeled vertex — every
// image a folded vertex can have. The ω-exclusivity test is one scan over the
// active vertices, made only when some peeled vertex is outside every
// restriction.
func foldable(s *State, omega candidateSet, peel, parent []int, rs []pattern.Restriction) (uint64, []graph.VertexID) {
	var mask uint64
	for _, q := range peel {
		mask |= 1 << uint(q)
	}
	for _, r := range rs {
		mask &^= 1<<uint(r.A) | 1<<uint(r.B)
	}
	if mask == 0 {
		return 0, nil
	}
	var shared uint64
	var images []graph.VertexID
	for ws := s.verts.Words(0, s.verts.Len()); ws.Next(); {
		for w := ws.Word; w != 0; w &= w - 1 {
			x := ws.Base + trailingZeros(w)
			if o := omega[x]; o&mask == 0 {
				continue
			} else if o&(o-1) != 0 {
				shared |= o
			} else {
				images = append(images, graph.VertexID(x))
			}
		}
	}
	mask &^= shared
	// Children peel before their parents, so a vertex's verdict is final
	// before its parent's is taken.
	for _, q := range peel {
		if bit := uint64(1) << uint(q); mask&bit == 0 && parent[q] >= 0 {
			mask &^= 1 << uint(parent[q])
		}
	}
	return mask, images
}

// weigh fills the weight array of every folded vertex q, children first: for
// each image x of q, the product of x's children weights is added at every
// active neighbour across an active slot whose edge label the template edge
// (q, parent(q)) accepts. It ticks once per slot it reads, so budgets and
// cancellation bind inside the pass.
func (f *tailFold) weigh(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck) {
	n := s.g.NumVertices()
	f.weight = make([][]int64, t.NumVertices())
	for _, q := range f.folded {
		sq := zeroWeights(n)
		label, _ := t.EdgeLabelBetween(q, f.parent[q])
		anyLabel := label == pattern.Wildcard
		for _, x := range f.images {
			if omega[x] != 1<<uint(q) {
				continue
			}
			wx := int64(1)
			for _, c := range t.Neighbors(q) {
				if f.parent[c] == q {
					wx *= f.weight[c][x]
				}
			}
			if wx == 0 {
				continue
			}
			ns, base, ws := s.slotScan(x)
			for ws.Next() {
				for w := ws.Word; w != 0; w &= w - 1 {
					cc.Tick()
					i := ws.Base + trailingZeros(w) - base
					if v := ns[i]; s.verts.Get(int(v)) && (anyLabel || s.g.EdgeLabelAt(x, i) == label) {
						sq[v] += wx
					}
				}
			}
		}
		f.weight[q] = sq
	}
}

// weightPool recycles weight arrays across counting runs, which are many
// and short (one per prototype search). Every array in it is all zero.
var weightPool sync.Pool

// zeroWeights returns an all-zero weight array of length n.
func zeroWeights(n int) []int64 {
	if p, ok := weightPool.Get().(*[]int64); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]int64, n)
}

// release zeroes the weight arrays — weigh wrote only across the images'
// active slots, and the state does not change while a count runs — and
// returns them to the pool. A count that aborts never releases: its arrays
// are left to the collector.
func (f *tailFold) release(s *State, omega candidateSet) {
	for _, x := range f.images {
		sq := f.weight[trailingZeros(omega[x])]
		if sq == nil {
			continue
		}
		ns, base, ws := s.slotScan(x)
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				sq[ns[ws.Base+trailingZeros(w)-base]] = 0
			}
		}
	}
	for _, q := range f.folded {
		sq := f.weight[q]
		weightPool.Put(&sq)
	}
}

// completions returns how many matches extend the current assignment with u
// placed at the last order position idx (q = order[idx]): the product, over
// the folded trees hanging off enumerated vertices, of their weights at the
// parents' images — one when nothing folded. When it is zero, zdep is the
// latest order position whose image a zero factor read: the emptiness holds
// for as long as that image does.
func (e *enumerator) completions(idx, q int, u graph.VertexID) (n int64, zdep int) {
	f := e.fold
	if f == nil {
		return 1, noDep
	}
	n, zdep = 1, -1
	for _, c := range f.tops {
		p, img, d := f.parent[c], u, idx
		if p != q {
			img, d = e.assigned[p], e.depth[p]
		}
		if w := f.weight[c][img]; w != 0 {
			n *= w
		} else {
			n, zdep = 0, max(zdep, d)
		}
	}
	return n, zdep
}
