package core

import (
	"approxmatch/internal/bitvec"
	"approxmatch/internal/graph"
	"approxmatch/internal/pattern"
)

// kernelOpts toggles the redundancy-elimination features of the backtracking
// kernels. The zero value enables everything; only tests set anything else,
// through Config's unexported kernelOpts field. Both features are
// correctness-neutral: symmetry breaking explores one representative per
// match orbit and restores the full count/enumeration by the orbit size, and
// guards only skip subtrees proven matchless, so Rho, solution subgraphs and
// counts are identical with any combination of knobs.
type kernelOpts struct {
	noSymmetry bool
	noGuards   bool
}

// noDep is the minDep value of a subtree with no dependency on any earlier
// assignment (compares greater than every order position).
const noDep = int(^uint(0) >> 1)

// restrCheck is one symmetry-breaking restriction anchored at the
// later-assigned endpoint: when assigning graph vertex u at that position,
// u must be less (uLess) or greater than the image of the earlier-assigned
// template vertex `other`.
type restrCheck struct {
	other int
	uLess bool
}

// guardStore holds GuP-style failure guards: bit q,u set means "a search
// subtree rooted at assigning graph vertex u to template vertex q was fully
// explored, found no match, and depended on no earlier assignment" — under
// the store's fixed matching order and the monotone shrinking of state and
// candidate sets, re-entering that subtree can be rejected in O(1). Tables
// are allocated lazily per template vertex and charged against the run's
// byte budget; on budget refusal the store stops recording (never wrong,
// only less pruning). A nil *guardStore is valid and never matches.
type guardStore struct {
	cc       *CancelCheck
	nWords   int
	tables   [][]uint64
	disabled bool
}

func newGuardStore(nTemplate, nGraph int, cc *CancelCheck) *guardStore {
	return &guardStore{cc: cc, nWords: (nGraph + 63) / 64, tables: make([][]uint64, nTemplate)}
}

func (gs *guardStore) lookup(q int, u graph.VertexID) bool {
	if gs == nil {
		return false
	}
	t := gs.tables[q]
	return t != nil && t[u>>6]&(1<<(u&63)) != 0
}

func (gs *guardStore) set(q int, u graph.VertexID, m *Metrics) {
	if gs == nil || gs.disabled {
		return
	}
	t := gs.tables[q]
	if t == nil {
		if !gs.cc.TryChargeBytes(int64(8 * gs.nWords)) {
			gs.disabled = true
			return
		}
		t = make([]uint64, gs.nWords)
		gs.tables[q] = t
	}
	t[u>>6] |= 1 << (u & 63)
	m.GuardsSet++
}

// enumerator performs backtracking match search restricted to the active
// state and candidate sets. It powers the final verification phase (seeded
// first-match probes) and full match enumeration/counting. Matching walks
// the template in a connected order, drawing candidates from active
// adjacency, so it is exactly the token-carrying TDS search of §4 in
// sequential form.
type enumerator struct {
	s     *State
	omega candidateSet
	t     *pattern.Template
	cc    *CancelCheck
	m     *Metrics

	matchOrder
	assigned []graph.VertexID // template vertex -> graph vertex
	isSet    []bool
	depth    []int // template vertex -> its position in order, when set

	// Symmetry breaking (GraphPi restriction sets): restrs[idx] holds the
	// order constraints to check when assigning order[idx]; auts is the full
	// automorphism group for orbit expansion, aut its size (1 = disabled).
	restrs [][]restrCheck
	auts   [][]int
	aut    int64

	// Failure-guard pruning (GuP): guards is consulted per candidate and
	// populated after fully-explored matchless subtrees whose pruning
	// depended on no assignment earlier than the subtree root. found and
	// minDep track the current subtree's outcome: whether any match
	// completed inside it, and the smallest order position of an earlier
	// assignment its pruning read (candidate sourcing, injectivity
	// conflicts, failed edge/restriction checks).
	guards *guardStore
	exp    *int64 // node-expansion counter (a Metrics field)
	found  bool
	minDep int

	// count is the number of matches a counting run (nil callback) completed;
	// fold, when non-nil, holds the pendant trees that run multiplies in at
	// its last order position instead of enumerating (see count.go).
	count int64
	fold  *tailFold
}

// matchOrder is a matching order and, per order position, the edge checks a
// candidate there must pass against the template neighbours placed before it
// — in t.Neighbors order, so a failing check records the same dependency the
// first failing neighbour always has. The first check's neighbour is the one
// candidates are sourced from.
type matchOrder struct {
	order  []int // template vertices in assignment order
	checks [][]edgeCheck
}

// edgeCheck is one placed template neighbour r of an order position: the
// candidate must be joined to r's image by an active graph edge carrying
// label, or any label when the template edge is a wildcard.
type edgeCheck struct {
	r     int
	label pattern.Label
	any   bool
}

// newMatchOrder hoists the template side of every edge test out of the
// candidate loop: the placed neighbours of each position and their edge-label
// requirements are read from t once per order, not once per candidate.
func newMatchOrder(t *pattern.Template, order []int) matchOrder {
	pos := make([]int, t.NumVertices())
	for q := range pos {
		pos[q] = len(order) // not enumerated: never placed
	}
	for i, q := range order {
		pos[q] = i
	}
	checks := make([][]edgeCheck, len(order))
	for i, q := range order {
		for _, r := range t.Neighbors(q) {
			if pos[r] < i {
				l, _ := t.EdgeLabelBetween(q, r)
				checks[i] = append(checks[i], edgeCheck{r: r, label: l, any: l == pattern.Wildcard})
			}
		}
	}
	return matchOrder{order: order, checks: checks}
}

// joined reports whether u is joined to v by an active edge that c's template
// edge accepts: one adjacency search answers both the slot and the label.
func (s *State) joined(u, v graph.VertexID, c edgeCheck) bool {
	i := s.g.EdgeIndex(u, v)
	return i >= 0 && s.edges.Get(s.slot(u, i)) && (c.any || s.g.EdgeLabelAt(u, i) == c.label)
}

func newEnumerator(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics) *enumerator {
	return &enumerator{
		s:        s,
		omega:    omega,
		t:        t,
		cc:       cc,
		m:        m,
		assigned: make([]graph.VertexID, t.NumVertices()),
		isSet:    make([]bool, t.NumVertices()),
		depth:    make([]int, t.NumVertices()),
		restrs:   make([][]restrCheck, t.NumVertices()),
		aut:      1,
		exp:      &m.EnumExpansions,
		minDep:   noDep,
	}
}

// dep records that the current subtree's outcome depends on the assignment
// at order position d.
func (e *enumerator) dep(d int) {
	if d < e.minDep {
		e.minDep = d
	}
}

// symmetryOf returns t's automorphism group and the restriction set that
// breaks it, or nils when t has no non-trivial automorphism.
func symmetryOf(t *pattern.Template) ([][]int, []pattern.Restriction) {
	auts := pattern.Automorphisms(t)
	if len(auts) <= 1 {
		return nil, nil
	}
	return auts, pattern.RestrictionsFor(t.NumVertices(), auts)
}

// restrict installs the automorphism group auts and its restriction set rs
// against the already chosen order. Each restriction A<B is anchored at
// whichever endpoint the order assigns later, so it is checked the moment
// both images exist. Every restricted vertex must be in the order.
func (e *enumerator) restrict(auts [][]int, rs []pattern.Restriction) {
	if len(auts) <= 1 {
		return
	}
	e.auts = auts
	e.aut = int64(len(auts))
	pos := make([]int, e.t.NumVertices())
	for i, q := range e.order {
		pos[q] = i
	}
	for _, r := range rs {
		if pos[r.A] > pos[r.B] {
			e.restrs[pos[r.A]] = append(e.restrs[pos[r.A]], restrCheck{other: r.B, uLess: true})
		} else {
			e.restrs[pos[r.B]] = append(e.restrs[pos[r.B]], restrCheck{other: r.A, uLess: false})
		}
	}
}

// orderFrom returns a template vertex order beginning with seeds in which
// every later vertex is adjacent to an earlier one. Vertices skip marks are
// left out (nil skips none); the rest must stay connected to the seeds.
func orderFrom(t *pattern.Template, seeds []int, skip []bool) []int {
	n := t.NumVertices()
	order := make([]int, 0, n)
	in := make([]bool, n)
	want := n
	for _, s := range skip {
		if s {
			want--
		}
	}
	for _, q := range seeds {
		order = append(order, q)
		in[q] = true
	}
	for len(order) < want {
		bestQ, bestScore := -1, -1
		for q := 0; q < n; q++ {
			if in[q] || skip != nil && skip[q] {
				continue
			}
			score := 0
			for _, r := range t.Neighbors(q) {
				if in[r] {
					score++
				}
			}
			if score > bestScore {
				bestQ, bestScore = q, score
			}
		}
		order = append(order, bestQ)
		in[bestQ] = true
	}
	return order
}

// run explores all completions of the current partial assignment; fn
// receives each complete match (slice reused) and returns false to stop.
// run returns false when fn stopped the search. A nil fn counts instead:
// every match adds one to e.count (see try for where).
func (e *enumerator) run(idx int, fn func([]graph.VertexID) bool) bool {
	if idx == len(e.order) {
		e.found = true
		return fn(e.assigned)
	}
	q := e.order[idx]
	// Source candidates from the first placed template neighbour. The
	// candidate stream reads that neighbour's image, so the subtree depends
	// on its position.
	if cs := e.checks[idx]; len(cs) > 0 {
		r := cs[0].r
		e.dep(e.depth[r])
		ns, base, ws := e.s.slotScan(e.assigned[r])
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				u := ns[ws.Base+trailingZeros(w)-base]
				if e.s.verts.Get(int(u)) && !e.try(idx, q, u, fn) {
					return false
				}
			}
		}
		return true
	}
	// No placed neighbor (only possible for the very first vertex): scan
	// all active vertices.
	for ws := e.s.verts.Words(0, e.s.verts.Len()); ws.Next(); {
		for w := ws.Word; w != 0; w &= w - 1 {
			if !e.try(idx, q, graph.VertexID(ws.Base+trailingZeros(w)), fn) {
				return false
			}
		}
	}
	return true
}

// consistent reports whether graph vertex u can extend the partial assignment
// as the image of q = order[idx]: a candidate for q, not guarded, inside the
// symmetry restrictions, not already an image, and joined to the image of
// every placed template neighbour of q by an active, label-compatible edge.
// Every rejection that read an earlier assignment records the dependency.
func (e *enumerator) consistent(idx, q int, u graph.VertexID) bool {
	e.cc.Tick()
	if !e.omega.has(u, q) {
		return false
	}
	if e.guards.lookup(q, u) {
		e.m.GuardHits++
		return false
	}
	for _, rc := range e.restrs[idx] {
		o := e.assigned[rc.other]
		if rc.uLess == (u >= o) {
			e.dep(e.depth[rc.other])
			return false
		}
	}
	// Injectivity: u must not already be the image of another template
	// vertex (≤|T| assigned slots, so a linear scan beats a map).
	for r, set := range e.isSet {
		if set && e.assigned[r] == u {
			e.dep(e.depth[r])
			return false
		}
	}
	e.m.VerifyMessages++
	// All template edges from q to already-placed vertices must be
	// active graph edges with acceptable edge labels.
	for _, c := range e.checks[idx] {
		if !e.s.joined(u, e.assigned[c.r], c) {
			e.dep(e.depth[c.r])
			return false
		}
	}
	return true
}

// try assigns u to q = order[idx] when that is consistent and explores the
// subtree below. It returns false when fn stopped the search.
func (e *enumerator) try(idx, q int, u graph.VertexID, fn func([]graph.VertexID) bool) bool {
	if !e.consistent(idx, q, u) {
		return true
	}
	*e.exp++
	if fn == nil && idx == len(e.order)-1 {
		// Counting leaf: a consistent candidate at the last position
		// completes to as many matches as the folded pendant trees allow
		// (one when nothing folded), so count them where they stand — no
		// assignment, no recursion, no call per match. This is everything
		// the general path below does for such a candidate: a subtree
		// holding a match is never guarded, and an empty one depends on the
		// position whose image a zero factor read.
		n, zdep := e.completions(idx, q, u)
		if n > 0 {
			e.count += n
			e.found = true
			return true
		}
		if zdep >= idx {
			e.guards.set(q, u, e.m)
		}
		e.dep(zdep)
		return true
	}
	e.assigned[q] = u
	e.isSet[q] = true
	e.depth[q] = idx
	savedFound, savedMin := e.found, e.minDep
	e.found, e.minDep = false, noDep
	ok := e.run(idx+1, fn)
	subFound, subMin := e.found, e.minDep
	e.isSet[q] = false
	// Guardable iff the subtree was fully explored, matchless, and its
	// pruning depended on nothing assigned before this position.
	if ok && !subFound && subMin >= idx {
		e.guards.set(q, u, e.m)
	}
	e.found = savedFound || subFound
	e.minDep = savedMin
	e.dep(subMin)
	return ok
}

// seed pre-assigns template vertex q to graph vertex u at order position
// pos; it returns false if the seed is inconsistent.
func (e *enumerator) seed(q int, u graph.VertexID, pos int) bool {
	if !e.omega.has(u, q) || !e.s.VertexActive(u) {
		return false
	}
	for r, set := range e.isSet {
		if set && r != q && e.assigned[r] == u {
			return false
		}
	}
	for _, c := range e.checks[pos] {
		if !e.s.joined(u, e.assigned[c.r], c) {
			return false
		}
	}
	e.assigned[q] = u
	e.isSet[q] = true
	e.depth[q] = pos
	return true
}

// templateEdgeLabelOK checks that the graph edge realizing template edge
// (q,r) carries an acceptable edge label.
func templateEdgeLabelOK(s *State, t *pattern.Template, q, r int, gu, gv graph.VertexID) bool {
	tl, ok := t.EdgeLabelBetween(q, r)
	if !ok {
		return false
	}
	if tl == pattern.Wildcard {
		return true
	}
	gl, ok := s.Graph().EdgeLabelBetween(gu, gv)
	return ok && gl == tl
}

// prober runs the seeded first-match probes of one verifyExact call — tens of
// thousands per query — on one enumerator: the matching order is computed
// once per seed tuple and the per-probe state is reset, not reallocated.
type prober struct {
	e *enumerator
	// orders caches the matching order per seed tuple, indexed by orderKey.
	orders []matchOrder
}

func newProber(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics) *prober {
	e := newEnumerator(s, omega, t, cc, m)
	e.exp = &m.VerifyExpansions
	n := t.NumVertices()
	return &prober{e: e, orders: make([]matchOrder, n*(n+1))}
}

// orderKey indexes prober.orders: one or two seed template vertices.
func (p *prober) orderKey(seedQ []int) int {
	key := seedQ[0] * (p.e.t.NumVertices() + 1)
	if len(seedQ) > 1 {
		key += seedQ[1] + 1
	}
	return key
}

// stopAtFirst is the probes' match callback.
func stopAtFirst([]graph.VertexID) bool { return false }

// find searches for one match with the given (template vertex → graph
// vertex) seeds; it returns the match — valid until the next find — or nil.
// A non-nil guards store must only ever be used with one seed tuple (guards
// are relative to the matching order orderFrom(t, seedQ)) and only while
// state and candidates shrink monotonically; guards never change which first
// witness is found — they skip subtrees proven to hold no match at all.
func (p *prober) find(guards *guardStore, seedQ []int, seedV []graph.VertexID) []graph.VertexID {
	e := p.e
	clear(e.isSet)
	e.found, e.minDep, e.guards = false, noDep, guards
	key := p.orderKey(seedQ)
	if p.orders[key].order == nil {
		p.orders[key] = newMatchOrder(e.t, orderFrom(e.t, seedQ, nil))
	}
	e.matchOrder = p.orders[key]
	for i, q := range seedQ {
		if !e.seed(q, seedV[i], i) {
			return nil
		}
	}
	if e.run(len(seedQ), stopAtFirst) {
		return nil
	}
	return e.assigned
}

// verifyExact is the final verification phase of SEARCH_PROTOTYPE: it
// reduces state and candidates to exactly the vertices and edges
// participating in at least one match of t (Def. 2), guaranteeing 100%
// precision on top of the recall-safe pruning phases. It returns the
// participating directed-edge bit vector.
//
// verifyExact keeps one-witness semantics: no symmetry breaking (a seeded
// probe must be free to find ANY witness through its seed), only failure
// guards, which are shared across the vertex phase's probes per seed
// template vertex (fixed matching order per q; state/omega only shrink).
func verifyExact(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, opts kernelOpts) *bitvec.Vector {
	g := s.Graph()
	vmark := make(candidateSet, g.NumVertices())
	emark := bitvec.New(g.NumDirectedEdges())

	var stores []*guardStore
	if !opts.noGuards {
		stores = make([]*guardStore, t.NumVertices())
		for q := range stores {
			stores[q] = newGuardStore(t.NumVertices(), g.NumVertices(), cc)
		}
	}

	probe := newProber(s, omega, t, cc, m)
	markMatch := func(match []graph.VertexID) {
		for tq, gv := range match {
			vmark[gv] |= 1 << uint(tq)
		}
		for _, e := range t.Edges() {
			u, v := match[e.I], match[e.J]
			if i := g.EdgeIndex(u, v); i >= 0 {
				emark.Set(int(g.AdjOffset(u)) + i)
			}
			if i := g.EdgeIndex(v, u); i >= 0 {
				emark.Set(int(g.AdjOffset(v)) + i)
			}
		}
	}

	// Vertex phase: certify or refute every (vertex, candidate) pair.
	s.ForEachActiveVertex(func(v graph.VertexID) {
		cc.Tick()
		for q := 0; q < t.NumVertices(); q++ {
			if !omega.has(v, q) || vmark.has(v, q) {
				continue
			}
			m.VerifySearches++
			var gs *guardStore
			if stores != nil {
				gs = stores[q]
			}
			if match := probe.find(gs, []int{q}, []graph.VertexID{v}); match != nil {
				markMatch(match)
			} else {
				omega.remove(v, q)
			}
		}
		if !omega.any(v) {
			s.dropVertex(v)
		}
	})

	// Edge phase: certify or refute every remaining active edge. Probes are
	// 2-seeded with per-orientation matching orders, so no guard store
	// applies here. The scan also clears the slots the vertex phase's
	// dropVertex calls left dangling.
	edgeParticipates := func(v, u graph.VertexID) bool {
		for _, te := range t.Edges() {
			for _, ori := range [2][2]int{{te.I, te.J}, {te.J, te.I}} {
				if !vmark.has(v, ori[0]) || !vmark.has(u, ori[1]) {
					continue
				}
				m.VerifySearches++
				if match := probe.find(nil, []int{ori[0], ori[1]}, []graph.VertexID{v, u}); match != nil {
					markMatch(match)
					return true
				}
			}
		}
		return false
	}
	s.ForEachActiveVertex(func(v graph.VertexID) {
		cc.Tick()
		ns, base, ws := s.slotScan(v)
		for ws.Next() {
			for w := ws.Word; w != 0; w &= w - 1 {
				slot := ws.Base + trailingZeros(w)
				u := ns[slot-base]
				if !s.verts.Get(int(u)) {
					s.edges.Clear(slot)
					continue
				}
				if v > u || emark.Get(slot) {
					continue
				}
				if !edgeParticipates(v, u) {
					s.DeactivateEdgeAt(v, slot-base)
				}
			}
		}
	})
	return emark
}

// enumerateMatches calls fn for every match; fn returns false to stop. The
// match slice is reused between calls. With symmetry breaking the
// enumeration order differs from the naive kernel's, but the multiset of
// mappings is identical: each restricted representative is expanded through
// the full automorphism group.
func enumerateMatches(s *State, omega candidateSet, t *pattern.Template, cc *CancelCheck, m *Metrics, opts kernelOpts, fn func([]graph.VertexID) bool) {
	e := newEnumerator(s, omega, t, cc, m)
	e.matchOrder = newMatchOrder(t, orderFrom(t, []int{rootVertex(t)}, nil))
	if !opts.noSymmetry {
		e.restrict(symmetryOf(t))
	}
	if !opts.noGuards {
		e.guards = newGuardStore(t.NumVertices(), s.Graph().NumVertices(), cc)
	}
	if e.aut <= 1 {
		e.run(0, fn)
		return
	}
	buf := make([]graph.VertexID, t.NumVertices())
	e.run(0, func(match []graph.VertexID) bool {
		for _, g := range e.auts {
			for q := range buf {
				buf[q] = match[g[q]]
			}
			if !fn(buf) {
				return false
			}
		}
		return true
	})
}

// rootVertex picks the enumeration root: highest degree wins.
func rootVertex(t *pattern.Template) int {
	best := 0
	for q := 1; q < t.NumVertices(); q++ {
		if t.Degree(q) > t.Degree(best) {
			best = q
		}
	}
	return best
}
