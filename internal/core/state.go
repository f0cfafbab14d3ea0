// Package core implements the approximate-matching pipeline of the paper
// (Alg. 1–5) as a sequential reference engine: maximum-candidate-set
// generation, local constraint checking (LCC), non-local constraint checking
// (NLCC) by token walks with work recycling, bottom-up iterative
// search-space reduction via the containment rule, exact final verification
// (100% precision / 100% recall), match enumeration and counting, and the
// top-down exploratory search mode.
//
// The distributed engine in internal/dist reimplements the same algorithms
// on a vertex-centric message-passing runtime and is differentially tested
// against this package.
package core

import (
	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// State is the active subgraph the search currently operates on: an active
// bit per vertex and an active bit per directed adjacency slot of the
// background graph (the ε(v) edge-state maps of Alg. 3, stored flat).
//
// Invariant, at every kernel exit and after every exported mutator: the slot
// vector is symmetric (the two slots of an edge agree) and no slot is active
// toward an inactive vertex — NumActiveDirectedEdges, StateBytes, the level
// statistics and CompactState count slots without looking at endpoints.
// Inside a kernel the second half is relaxed: dropVertex leaves the reverse
// slots of a dead vertex to their owners, which is sound because every
// traversal helper re-checks the far endpoint's vertex bit.
type State struct {
	g     *graph.Graph
	verts *bitvec.Vector
	edges *bitvec.Vector // indexed by directed adjacency slot
	// view, when non-nil, records that g is a compacted view of a larger
	// graph (see CompactState): vertex and slot ids are view-local and must
	// be translated through the view before leaving the search.
	view *graph.View
}

// NewFullState returns a state with every vertex and edge active.
func NewFullState(g *graph.Graph) *State {
	s := &State{
		g:     g,
		verts: bitvec.New(g.NumVertices()),
		edges: bitvec.New(g.NumDirectedEdges()),
	}
	s.verts.SetAll()
	s.edges.SetAll()
	return s
}

// NewEmptyState returns a state with everything inactive.
func NewEmptyState(g *graph.Graph) *State {
	return &State{
		g:     g,
		verts: bitvec.New(g.NumVertices()),
		edges: bitvec.New(g.NumDirectedEdges()),
	}
}

// Clone returns an independent copy of the state. The view, when present,
// is immutable and shared.
func (s *State) Clone() *State {
	return &State{g: s.g, verts: s.verts.Clone(), edges: s.edges.Clone(), view: s.view}
}

// Graph returns the underlying background graph.
func (s *State) Graph() *graph.Graph { return s.g }

// View returns the compacted view this state runs on, or nil when the state
// addresses the original graph directly.
func (s *State) View() *graph.View { return s.view }

// origID translates a (possibly view-local) vertex id to the original
// graph's id space — the id space of the work-recycling cache and of every
// emitted result.
func (s *State) origID(v graph.VertexID) graph.VertexID {
	if s.view == nil {
		return v
	}
	return s.view.OrigVertex(v)
}

// VertexActive reports whether v is active.
func (s *State) VertexActive(v graph.VertexID) bool { return s.verts.Get(int(v)) }

// DeactivateVertex removes v and all its incident directed edge slots: v's
// own out-slots and, by one binary search per neighbor, the reverse slots
// held toward v. It is the point mutator for callers outside the kernels;
// the kernels, which kill vertices in bulk, use dropVertex.
func (s *State) DeactivateVertex(v graph.VertexID) {
	for _, u := range s.g.Neighbors(v) {
		if j := s.g.EdgeIndex(u, v); j >= 0 {
			s.edges.Clear(s.slot(u, j))
		}
	}
	s.dropVertex(v)
}

// dropVertex is the kernels' deactivation: it clears v's vertex bit and its
// own out-slot range and leaves the reverse slots dangling. Their owners
// clear them the next time they scan them (the edge phases of lcc and
// verifyExact do); a kernel that ends without such a scan calls
// clearDanglingSlots before it returns.
func (s *State) dropVertex(v graph.VertexID) {
	s.verts.Clear(int(v))
	base := int(s.g.AdjOffset(v))
	s.edges.ClearRange(base, base+s.g.Degree(v))
}

// clearDanglingSlots restores the kernel-exit invariant after dropVertex
// calls: every active slot of an active vertex whose far endpoint is
// inactive is cleared. One pass over what is still active — no reverse-slot
// lookup.
func (s *State) clearDanglingSlots() {
	s.ForEachActiveVertex(func(v graph.VertexID) {
		ns, base, ws := s.slotScan(v)
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				slot := ws.Base + trailingZeros(w)
				if !s.verts.Get(int(ns[slot-base])) {
					s.edges.Clear(slot)
				}
			}
		}
	})
}

// slot returns the directed adjacency slot index for u's i-th neighbor.
func (s *State) slot(u graph.VertexID, i int) int {
	return int(s.g.AdjOffset(u)) + i
}

// EdgeActiveAt reports whether the directed slot (u, i-th neighbor) is
// active. An edge is usable only when the slot, the vertex and the neighbor
// are all active; the traversal helpers below enforce that.
func (s *State) EdgeActiveAt(u graph.VertexID, i int) bool {
	return s.edges.Get(s.slot(u, i))
}

// DeactivateEdgeAt removes the undirected edge between u and its i-th
// neighbor (both directions).
func (s *State) DeactivateEdgeAt(u graph.VertexID, i int) {
	v := s.g.Neighbors(u)[i]
	s.edges.Clear(s.slot(u, i))
	if j := s.g.EdgeIndex(v, u); j >= 0 {
		s.edges.Clear(s.slot(v, j))
	}
}

// EdgeActiveBetween reports whether the undirected edge (u,v) is active
// (checks the u-side slot; inside a kernel the caller must know v is active,
// see dropVertex).
func (s *State) EdgeActiveBetween(u, v graph.VertexID) bool {
	i := s.g.EdgeIndex(u, v)
	return i >= 0 && s.edges.Get(s.slot(u, i))
}

// ForEachActiveVertex calls fn for every active vertex in increasing order.
func (s *State) ForEachActiveVertex(fn func(v graph.VertexID)) {
	s.verts.ForEach(func(i int) { fn(graph.VertexID(i)) })
}

// slotScan is the start of every pass over u's active out-slots: u's
// adjacency, the slot index of its first entry, and a scan of the slots still
// active (see bitvec.WordScan for the loop; slot i leads to ns[i-base]). Heavily
// pruned adjacencies cost O(words) rather than O(degree). The far endpoint is
// the caller's to test: inside a kernel a slot may dangle toward a dropped
// vertex (see dropVertex).
func (s *State) slotScan(u graph.VertexID) (ns []graph.VertexID, base int, ws bitvec.WordScan) {
	ns = s.g.Neighbors(u)
	base = int(s.g.AdjOffset(u))
	return ns, base, s.edges.Words(base, base+len(ns))
}

// gatherOmega is a constraint-checking kernel's one read of v's
// neighbourhood per round: it fills buf with ω(w) of every active neighbour w
// of v — active slot, active far endpoint — in adjacency order and returns
// it. Its length is v's active degree, the number of visitors v receives this
// round (Alg. 4); every per-candidate question the kernel then asks ("does
// some / do c neighbours hold a candidate in this mask") is answered from buf
// without touching the graph again. v's own processing never changes a
// neighbour's ω or vertex bit (no self-loops), so buffering reads exactly the
// values a walk per question would — under the in-place schedule as much as
// the frozen-snapshot one. buf is the caller's scratch, one per goroutine.
func (s *State) gatherOmega(omega candidateSet, v graph.VertexID, buf []uint64) []uint64 {
	buf = buf[:0]
	ns, base, ws := s.slotScan(v)
	for ws.Next() {
		for w := ws.Word; w != 0; w &= w - 1 {
			if u := ns[ws.Base+trailingZeros(w)-base]; s.verts.Get(int(u)) {
				buf = append(buf, omega[u])
			}
		}
	}
	return buf
}

// holdsAtLeast reports whether at least n of the gathered neighbour masks
// intersect mask; the count stops as soon as it is reached.
func holdsAtLeast(nbr []uint64, mask uint64, n int) bool {
	for _, ow := range nbr {
		if ow&mask != 0 {
			if n--; n <= 0 {
				return true
			}
		}
	}
	return n <= 0
}

// NumActiveVertices returns the number of active vertices.
func (s *State) NumActiveVertices() int { return s.verts.Count() }

// NumActiveDirectedEdges returns the number of active directed edge slots.
func (s *State) NumActiveDirectedEdges() int { return s.edges.Count() }

// VertexBits exposes the active-vertex bit vector. Callers constructing a
// state from scratch may mutate it; shared states must be treated as
// read-only.
func (s *State) VertexBits() *bitvec.Vector { return s.verts }

// EdgeBits exposes the active-edge bit vector, under the same contract as
// VertexBits.
func (s *State) EdgeBits() *bitvec.Vector { return s.edges }

// StateBytes returns the memory footprint of the state's bit vectors, for
// the Fig. 11 memory accounting.
func (s *State) StateBytes() int64 { return s.verts.Bytes() + s.edges.Bytes() }

// candidateSet is the per-vertex template-vertex candidate bitmask ω(v)
// (Alg. 3). Templates have at most 64 vertices, comfortably above any
// practical search template.
type candidateSet []uint64

// initCandidates builds ω for a prototype over the active vertices of s:
// bit q of ω(v) is set when template vertex q's label accepts v's label
// (wildcard template vertices are candidates everywhere).
func initCandidates(s *State, t *pattern.Template) candidateSet {
	omega := make(candidateSet, s.g.NumVertices())
	bits, wild := vertexLabelBits(t)
	s.ForEachActiveVertex(func(v graph.VertexID) {
		omega[v] = bits.at(s.g.Label(v)) | wild
	})
	return omega
}

// labelTable maps a label to a uint64 through a slice indexed by label. It is
// sized by the labels entered — a template's, never the graph's — so building
// one costs O(template), and a graph label it has never seen reads as zero.
// Template labels arrive from outside and may be any uint32: those at or
// above denseLabelLimit go to a map instead of sizing the slice.
type labelTable struct {
	dense []uint64
	rest  map[pattern.Label]uint64
}

const denseLabelLimit = 1 << 12

func (lt *labelTable) add(l pattern.Label, bits uint64) {
	if l >= denseLabelLimit {
		if lt.rest == nil {
			lt.rest = make(map[pattern.Label]uint64)
		}
		lt.rest[l] |= bits
		return
	}
	if n := int(l) + 1 - len(lt.dense); n > 0 {
		lt.dense = append(lt.dense, make([]uint64, n)...)
	}
	lt.dense[l] |= bits
}

func (lt *labelTable) at(l pattern.Label) uint64 {
	if int(l) < len(lt.dense) {
		return lt.dense[l]
	}
	return lt.rest[l]
}

// vertexLabelBits returns, per concrete label, the mask of t's vertices
// carrying it, and the mask of t's wildcard vertices.
func vertexLabelBits(t *pattern.Template) (bits labelTable, wild uint64) {
	for q, l := range t.Labels() {
		if l == pattern.Wildcard {
			wild |= 1 << uint(q)
		} else {
			bits.add(l, 1<<uint(q))
		}
	}
	return bits, wild
}

func (o candidateSet) has(v graph.VertexID, q int) bool {
	return o[v]&(1<<uint(q)) != 0
}

func (o candidateSet) remove(v graph.VertexID, q int) {
	o[v] &^= 1 << uint(q)
}

func (o candidateSet) any(v graph.VertexID) bool { return o[v] != 0 }
