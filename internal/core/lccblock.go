package core

import (
	"math/bits"
	"time"

	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// This file implements the bit-sliced level LCC: every prototype of a
// δ-level that starts from the level state runs the same first LCC fixpoint
// (Alg. 4) over the same vertices and slots, so lccBlock runs up to 64 of
// them in one Gauss-Seidel pass, one prototype per bit lane of a uint64.
//
// Lane layout. Per (vertex v, template vertex q) one word holds the lanes
// whose ω(v) still contains q; per vertex and per directed slot one word holds
// the lanes where it is still active; per template pair (q, r) one word holds
// the lanes whose prototype has the edge. Every prototype of a set has the
// base template's vertices and labels, so all lanes start from the same ω.
//
// Why a lane is its own lcc run. The block visits vertices in the same order
// as lcc, phase by phase, and computes every lane's verdict with word
// operations on that lane's bits only: a lane reads its own ω, vertex and
// slot bits and writes nothing outside them. A lane that finishes its
// fixpoint (a round with no elimination) leaves the live mask and is never
// touched again. So each lane ends with exactly the ω, vertex bits and slot
// bits its own lcc call would, after the same number of rounds, having
// delivered the same visitors and made the same probe ticks; LCCMessages go
// through bit-sliced counters and each lane's ticks are charged one by one
// (CancelCheck.tickN), so the counters and the budget charge do not move.

const (
	// maxBlockLanes is the width of a lane word.
	maxBlockLanes = 64
	// minBlockLanes is the switch-over rule: a level runs its first LCC
	// fixpoints in blocks only if every block gets at least this many lanes.
	// A block pays once per vertex for what lcc pays once per vertex and
	// prototype, so it wins only when many lanes share it (see INTERNALS,
	// "Bit-sliced level LCC").
	minBlockLanes = 8
)

// blockCount returns how many blocks a level with the given number of
// block-eligible prototypes splits into at the given width — one per worker,
// or more when a worker's share would overflow a lane word — and 0 when the
// blocks would fall below minBlockLanes and the level should run lcc per
// prototype instead.
func blockCount(lanes, width int) int {
	nb := min(max(width, 1), lanes)
	nb = max(nb, (lanes+maxBlockLanes-1)/maxBlockLanes)
	if nb == 0 || lanes < nb*minBlockLanes {
		return 0
	}
	return nb
}

// laneBlockBytes is the memory of one block over a state on g for templates
// of nq vertices: the lane words per (vertex, template vertex), per vertex
// and per slot, plus the block's vertex work list.
func laneBlockBytes(g *graph.Graph, nq int) int64 {
	n, slots := int64(g.NumVertices()), int64(g.NumDirectedEdges())
	return 8*(n*int64(nq)+n+slots) + 4*n
}

// laneGroup is one neighbour-label group of a template vertex q across the
// lanes: the union of the lanes' template neighbours of q with that label.
// A lane's own group (constraint.Group) is the members whose edge word holds
// the lane, and exact[c] holds the lanes whose group has c members — c = 0
// is a lane whose prototype puts no neighbour of that label at q; exact ends
// at the largest multiplicity of any lane.
type laneGroup struct {
	members []int
	edge    []uint64
	exact   []uint64
}

// holds returns the lanes in which ω(u) holds a candidate of the group.
func (grp *laneGroup) holds(row []uint64) (x uint64) {
	for j, r := range grp.members {
		x |= grp.edge[j] & row[r]
	}
	return x
}

// laneShape is the lane-sliced local profile of a block's templates.
type laneShape struct {
	groups [][]laneGroup
	// nbr[q] lists the template vertices adjacent to q in some lane and
	// nbrEdge[q][j] the lanes where q–nbr[q][j] is an edge.
	nbr     [][]int
	nbrEdge [][]uint64
}

func newLaneShape(profs []*localProfile) *laneShape {
	t := profs[0].Template()
	nq := t.NumVertices()
	sh := &laneShape{groups: make([][]laneGroup, nq), nbr: make([][]int, nq), nbrEdge: make([][]uint64, nq)}
	for q := 0; q < nq; q++ {
		edge := make([]uint64, nq)
		for lane, p := range profs {
			for m := p.NbrMask(q); m != 0; m &= m - 1 {
				edge[trailingZeros(m)] |= 1 << uint(lane)
			}
		}
		byLabel := map[pattern.Label]int{}
		for r, lanes := range edge {
			if lanes == 0 {
				continue
			}
			sh.nbr[q] = append(sh.nbr[q], r)
			sh.nbrEdge[q] = append(sh.nbrEdge[q], lanes)
			gi, ok := byLabel[t.Label(r)]
			if !ok {
				gi = len(sh.groups[q])
				byLabel[t.Label(r)] = gi
				sh.groups[q] = append(sh.groups[q], laneGroup{})
			}
			grp := &sh.groups[q][gi]
			grp.members = append(grp.members, r)
			grp.edge = append(grp.edge, lanes)
		}
		for gi := range sh.groups[q] {
			grp := &sh.groups[q][gi]
			for lane := range profs {
				c := 0
				for _, lanes := range grp.edge {
					c += int(lanes >> uint(lane) & 1)
				}
				for len(grp.exact) <= c {
					grp.exact = append(grp.exact, 0)
				}
				grp.exact[c] |= 1 << uint(lane)
			}
		}
	}
	return sh
}

// laneNbr is one gathered neighbour: its id and the lanes it visits in.
type laneNbr struct {
	u     graph.VertexID
	lanes uint64
}

// unsatisfied returns the lanes among cand (lanes whose ω(v) holds q) in
// which q fails a local constraint against the gathered neighbours: per
// label group, fewer neighbours hold a group candidate than the lane's
// multiplicity. Multiplicities above 1 count with saturating per-lane
// "at least c" masks; scratch holds them.
func (sh *laneShape) unsatisfied(q int, cand uint64, nbr []laneNbr, omega []uint64, nq int, scratch []uint64) uint64 {
	ok := cand
	for gi := range sh.groups[q] {
		grp := &sh.groups[q][gi]
		req := ok &^ grp.exact[0]
		if req == 0 {
			continue
		}
		var sat uint64
		if len(grp.exact) == 2 { // every constrained lane needs one neighbour
			for _, nb := range nbr {
				if x := nb.lanes & req &^ sat; x != 0 {
					u := int(nb.u) * nq
					if sat |= x & grp.holds(omega[u:u+nq]); sat == req {
						break
					}
				}
			}
		} else {
			atLeast := scratch[:len(grp.exact)]
			clear(atLeast)
			for _, nb := range nbr {
				u := int(nb.u) * nq
				x := nb.lanes & req & grp.holds(omega[u:u+nq])
				for c := len(atLeast) - 1; c >= 2; c-- {
					atLeast[c] |= atLeast[c-1] & x
				}
				atLeast[1] |= x
			}
			for c := 1; c < len(atLeast); c++ {
				sat |= grp.exact[c] & atLeast[c]
			}
		}
		if ok &^= req &^ sat; ok == 0 {
			break
		}
	}
	return cand &^ ok
}

// laneCounts is 64 per-lane counters, bit-sliced: plane i holds bit i of
// every lane's count, so adding to a set of lanes costs a few word
// operations whatever the number of lanes. An add goes into four low planes
// with a branch-free ripple; every 15 adds they spill into the wide planes.
type laneCounts struct {
	low    [4]uint64
	lowN   int
	planes [16]uint64
	// gained bounds every lane's count in the wide planes.
	gained int
	total  [maxBlockLanes]int64
}

// add counts one for every lane of m.
func (c *laneCounts) add(m uint64) {
	c0 := c.low[0] & m
	c.low[0] ^= m
	c1 := c.low[1] & c0
	c.low[1] ^= c0
	c.low[3] ^= c.low[2] & c1
	c.low[2] ^= c1
	if c.lowN++; c.lowN == 15 {
		c.spill()
	}
}

// spill adds the low planes, plane i at weight 2^i, into the wide planes.
func (c *laneCounts) spill() {
	if c.gained+c.lowN >= 1<<len(c.planes) {
		c.flush()
	}
	c.gained += c.lowN
	for i, p := range c.low {
		for j, carry := i, p; carry != 0; j++ {
			c.planes[j], carry = c.planes[j]^carry, c.planes[j]&carry
		}
	}
	c.low, c.lowN = [4]uint64{}, 0
}

// flush moves the wide planes into the per-lane totals.
func (c *laneCounts) flush() {
	for i, p := range c.planes {
		for ; p != 0; p &= p - 1 {
			c.total[bits.TrailingZeros64(p)] += 1 << uint(i)
		}
		c.planes[i] = 0
	}
	c.gained = 0
}

// totals returns every lane's count.
func (c *laneCounts) totals() *[maxBlockLanes]int64 {
	c.spill()
	c.flush()
	return &c.total
}

// laneBlock is the outcome of lccBlock: every lane's LCC fixpoint over the
// level state, to be unpacked lane by lane.
type laneBlock struct {
	level *State
	nq    int
	omega []uint64 // omega[v*nq+q]: lanes whose ω(v) holds q
	verts []uint64 // lanes where vertex v is active
	slots []uint64 // lanes where the directed slot is active
}

// testHookLCCBlock, when set, runs when an lccBlock has set up its lanes and
// is about to start its rounds, with the block's probe — the seam the
// cancellation and budget tests use to act in the middle of a block.
var testHookLCCBlock func(cc *CancelCheck)

// lccBlock runs lcc to its fixpoint on a copy of level, with initCandidates'
// ω, for every profile of profs at once (1 to 64, one bit lane each; all of
// one template's prototypes, so they share vertices and labels). Lane i's
// LCCMessages and LCCIterations go to ms[i]; the block itself counts in
// ms[0].LCCBlocks and its wall time in ms[0].LCCTime. level is not modified.
func lccBlock(level *State, profs []*localProfile, cc *CancelCheck, ms []*Metrics) *laneBlock {
	start := time.Now()
	g := level.g
	t := profs[0].Template()
	nq := t.NumVertices()
	sh := newLaneShape(profs)
	all := ^uint64(0) >> uint(maxBlockLanes-len(profs))
	b := &laneBlock{
		level: level,
		nq:    nq,
		omega: make([]uint64, g.NumVertices()*nq),
		verts: make([]uint64, g.NumVertices()),
		slots: make([]uint64, g.NumDirectedEdges()),
	}
	labels, wild := vertexLabelBits(t)
	work := make([]graph.VertexID, 0, level.NumActiveVertices()) // vertices active in a live lane, increasing
	level.ForEachActiveVertex(func(v graph.VertexID) {
		work = append(work, v)
		b.verts[v] = all
		for o := labels.at(g.Label(v)) | wild; o != 0; o &= o - 1 {
			b.omega[int(v)*nq+trailingZeros(o)] = all
		}
		_, _, ws := level.slotScan(v)
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				b.slots[ws.Base+trailingZeros(w)] = all
			}
		}
	})

	var msgs laneCounts
	var iters [maxBlockLanes]int64
	var nbr []laneNbr
	need := make([]uint64, nq)
	scratch := make([]uint64, nq+1)
	type rNeed struct {
		r     int
		lanes uint64
	}
	var needs []rNeed
	if h := testHookLCCBlock; h != nil {
		h(cc)
	}
	for live := all; live != 0; {
		for l := live; l != 0; l &= l - 1 {
			iters[trailingZeros(l)]++
		}
		var changed uint64
		// Vertex phase: lcc's gather and candidate re-validation, for every
		// live lane in which v is active.
		for _, v := range work {
			act := b.verts[v] & live
			if act == 0 {
				continue
			}
			cc.tickN(bits.OnesCount64(act))
			ns := g.Neighbors(v)
			slots := b.slots[g.AdjOffset(v):][:len(ns)]
			nbr = nbr[:0]
			for i, u := range ns {
				if vis := slots[i] & act & b.verts[u]; vis != 0 {
					nbr = append(nbr, laneNbr{u, vis})
					msgs.add(vis)
				}
			}
			row := b.omega[int(v)*nq : int(v)*nq+nq]
			var alive uint64
			for q, w := range row {
				cand := w & act
				if cand == 0 {
					continue
				}
				if rm := sh.unsatisfied(q, cand, nbr, b.omega, nq, scratch); rm != 0 {
					row[q] &^= rm
					changed |= rm
				}
				alive |= row[q]
			}
			if dead := act &^ alive; dead != 0 {
				b.verts[v] &^= dead
				for i := range slots {
					slots[i] &^= dead
				}
				changed |= dead
			}
		}
		// Edge phase: a slot survives in a lane iff ω(u) meets the union of
		// the lane's template neighbourhoods of ω(v); per template vertex r,
		// need[r] holds the lanes whose union contains r.
		for _, v := range work {
			act := b.verts[v] & live
			if act == 0 {
				continue
			}
			cc.tickN(bits.OnesCount64(act))
			row := b.omega[int(v)*nq : int(v)*nq+nq]
			for q, w := range row {
				if cand := w & act; cand != 0 {
					for j, r := range sh.nbr[q] {
						need[r] |= cand & sh.nbrEdge[q][j]
					}
				}
			}
			needs = needs[:0]
			for r, lanes := range need {
				if lanes != 0 {
					needs = append(needs, rNeed{r, lanes})
					need[r] = 0
				}
			}
			ns := g.Neighbors(v)
			slots := b.slots[g.AdjOffset(v):][:len(ns)]
			for i, u := range ns {
				a := slots[i] & act
				if a == 0 {
					continue
				}
				on := a & b.verts[u] // lanes where u is active too
				urow := b.omega[int(u)*nq : int(u)*nq+nq]
				var sup uint64
				for _, rn := range needs {
					sup |= rn.lanes & urow[rn.r]
				}
				sup &= on
				// One message per examined live slot; a refuted one only from
				// the endpoint scanned first.
				if v < u {
					msgs.add(on)
				} else if sup != 0 {
					msgs.add(sup)
				}
				if clr := a &^ sup; clr != 0 {
					slots[i] &^= clr
					changed |= on &^ sup
				}
			}
		}
		live &= changed
		kept := work[:0]
		for _, v := range work {
			if b.verts[v]&live != 0 {
				kept = append(kept, v)
			}
		}
		work = kept
	}
	total := msgs.totals()
	for lane, m := range ms {
		m.LCCMessages += total[lane]
		m.LCCIterations += iters[lane]
	}
	ms[0].LCCBlocks++
	ms[0].LCCTime += time.Since(start)
	return b
}

// unpack returns lane's state and ω — exactly what lcc leaves on a clone of
// the level state with initCandidates' ω. It reads the level's active
// vertices once and copies only what survives in the lane.
func (b *laneBlock) unpack(lane int) (*State, candidateSet) {
	level, nq, bit := b.level, b.nq, uint64(1)<<uint(lane)
	s := NewEmptyState(level.g)
	s.view = level.view
	omega := make(candidateSet, level.g.NumVertices())
	level.ForEachActiveVertex(func(v graph.VertexID) {
		if b.verts[v]&bit == 0 {
			return
		}
		s.verts.Set(int(v))
		var o uint64
		for q, w := range b.omega[int(v)*nq : int(v)*nq+nq] {
			if w&bit != 0 {
				o |= 1 << uint(q)
			}
		}
		omega[v] = o
		base := int(level.g.AdjOffset(v))
		for i, w := range b.slots[base : base+level.g.Degree(v)] {
			if w&bit != 0 {
				s.edges.Set(base + i)
			}
		}
	})
	return s, omega
}
