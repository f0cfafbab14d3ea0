package graph

import (
	"fmt"
	"slices"
)

// Degree-ordered internal vertex IDs. RelabelByDegree rewrites the CSR so
// internal id 0 is the highest-degree vertex: hub-heavy workloads touch a
// dense prefix of every per-vertex array (offsets, labels, bit vectors,
// candidate masks), which is where the matching kernels spend their time, so
// the hot working set packs into far fewer cache lines than load-order ids
// allow. The original ("external") ids remain the public vocabulary — the
// loader's line numbers, ingest batches, server JSON, result exports — and
// the permutation tables carried on the Graph translate at every API
// boundary. A graph without tables is its own external space (identity).

// Relabeled reports whether g carries an internal/external id permutation.
func (g *Graph) Relabeled() bool { return g.toExt != nil }

// ExternalID translates an internal vertex id to the external id space; it
// is the identity on non-relabeled graphs.
func (g *Graph) ExternalID(v VertexID) VertexID {
	if g.toExt == nil {
		return v
	}
	return g.toExt[v]
}

// InternalID translates an external vertex id to the internal id space; it
// is the identity on non-relabeled graphs.
func (g *Graph) InternalID(v VertexID) VertexID {
	if g.toInt == nil {
		return v
	}
	return g.toInt[v]
}

// ExternalTable returns a copy of the internal→external id permutation,
// or nil when internal ids are the identity. WAL checkpoints persist this
// table alongside the CSR: the checkpointed graph is already in internal
// order, so re-deriving the permutation from it would yield the identity
// and silently break external-id translation after recovery.
func (g *Graph) ExternalTable() []VertexID {
	if g.toExt == nil {
		return nil
	}
	out := make([]VertexID, len(g.toExt))
	copy(out, g.toExt)
	return out
}

// SetExternalTable installs toExt as g's internal→external permutation
// (nil clears it) and derives the inverse. It validates that toExt is a
// permutation of [0, n) — checkpoint bytes are not trusted.
func (g *Graph) SetExternalTable(toExt []VertexID) error {
	if toExt == nil {
		g.toExt, g.toInt = nil, nil
		return nil
	}
	n := g.NumVertices()
	if len(toExt) != n {
		return fmt.Errorf("graph: external table has %d entries for %d vertices", len(toExt), n)
	}
	toInt := make([]VertexID, n)
	seen := make([]bool, n)
	for i, e := range toExt {
		if int(e) >= n {
			return fmt.Errorf("graph: external table entry %d out of range (n=%d)", e, n)
		}
		if seen[e] {
			return fmt.Errorf("graph: external table maps id %d twice", e)
		}
		seen[e] = true
		toInt[e] = VertexID(i)
	}
	own := make([]VertexID, n)
	copy(own, toExt)
	g.toExt, g.toInt = own, toInt
	return nil
}

// RelabelByDegree returns a graph isomorphic to g whose internal vertex ids
// are ordered by descending degree (ties broken by ascending prior id), with
// translation tables installed so ExternalID/InternalID map between the new
// internal space and g's external space. When g is already degree-ordered
// and carries no tables, g itself is returned. Deltas applied to the result
// must use internal ids (see TranslateDeltaToInternal); the vertex set is
// fixed per process, so the tables stay valid across every epoch derived
// from the result.
func RelabelByDegree(g *Graph) *Graph {
	n := g.NumVertices()
	if n == 0 {
		return g
	}
	// Counting sort: bucket d holds the vertices of degree maxDeg-d, so
	// filling the buckets in id order lists vertices by descending degree,
	// ascending prior id within a degree.
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, g.Degree(VertexID(v)))
	}
	next := make([]int, maxDeg+2) // next[d+1] counts bucket d, then next[d] is its next slot
	for v := 0; v < n; v++ {
		next[maxDeg-g.Degree(VertexID(v))+1]++
	}
	for d := 0; d <= maxDeg; d++ {
		next[d+1] += next[d]
	}
	order := make([]VertexID, n) // internal id -> previous id
	for v := 0; v < n; v++ {
		d := maxDeg - g.Degree(VertexID(v))
		order[next[d]] = VertexID(v)
		next[d]++
	}
	identity := true
	for i, p := range order {
		if p != VertexID(i) {
			identity = false
			break
		}
	}
	if identity && !g.Relabeled() {
		return g
	}

	// Compose with any existing permutation so external ids always refer to
	// the original load-time space.
	toExt := make([]VertexID, n)
	toInt := make([]VertexID, n)
	for i, p := range order {
		toExt[i] = g.ExternalID(p)
		toInt[toExt[i]] = VertexID(i)
	}
	toPrevInt := make([]VertexID, n) // previous id -> new internal id
	for i, p := range order {
		toPrevInt[p] = VertexID(i)
	}

	ng := &Graph{
		offsets: make([]int64, n+1),
		adj:     make([]VertexID, len(g.adj)),
		labels:  make([]Label, n),
		toExt:   toExt,
		toInt:   toInt,
	}
	labeled := g.HasEdgeLabels()
	if labeled {
		ng.edgeLabels = make([]Label, len(g.adj))
	}
	for v := 0; v < n; v++ {
		ng.offsets[v+1] = ng.offsets[v] + int64(g.Degree(order[v]))
		ng.labels[v] = g.labels[order[v]]
	}
	// Fill the rows by transposition: visiting new ids x in increasing order
	// and appending x to the row of each of its neighbors leaves every row
	// sorted. An edge's label is the same from both ends, so x's slot for a
	// neighbor carries over to the neighbor's slot for x.
	cursor := slices.Clone(ng.offsets[:n])
	for x, prev := range order {
		lo := g.offsets[prev]
		for i, w := range g.Neighbors(prev) {
			y := toPrevInt[w]
			ng.adj[cursor[y]] = VertexID(x)
			if labeled {
				ng.edgeLabels[cursor[y]] = g.edgeLabels[lo+int64(i)]
			}
			cursor[y]++
		}
	}
	return ng
}

// TranslateDeltaToInternal returns a copy of d with every vertex id
// translated from g's external space to its internal space — the form
// ApplyDelta and SnapshotStore.Apply expect. On a non-relabeled graph d is
// returned unchanged. Out-of-range ids pass through untranslated so delta
// validation still reports them (with the id the caller supplied).
func TranslateDeltaToInternal(g *Graph, d *Delta) *Delta {
	if !g.Relabeled() || d == nil {
		return d
	}
	n := VertexID(g.NumVertices())
	tr := func(v VertexID) VertexID {
		if v >= n {
			return v
		}
		return g.InternalID(v)
	}
	nd := &Delta{InsertLabels: d.InsertLabels}
	nd.Insert = make([]Edge, len(d.Insert))
	for i, e := range d.Insert {
		nd.Insert[i] = Edge{tr(e.U), tr(e.V)}
	}
	nd.Delete = make([]Edge, len(d.Delete))
	for i, e := range d.Delete {
		nd.Delete[i] = Edge{tr(e.U), tr(e.V)}
	}
	nd.Relabels = make([]Relabel, len(d.Relabels))
	for i, r := range d.Relabels {
		nd.Relabels[i] = Relabel{V: tr(r.V), L: r.L}
	}
	return nd
}
