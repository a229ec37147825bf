package iso

import (
	"math/bits"
	"sync"

	"graphcache/internal/graph"
)

// VF2 runs the VF2 subgraph-isomorphism search and reports whether p ⊑ t,
// together with search statistics. opts bounds the search; on an aborted
// search the boolean is false and Stats.Aborted is set.
func VF2(p, t *graph.Graph, opts Options) (bool, Stats) {
	if p.N() == 0 {
		return true, Stats{} // the empty pattern embeds everywhere
	}
	if quickReject(p, t) {
		return false, Stats{}
	}
	m := matcher{plan: p.Plan(), t: t, max: opts.MaxRecursions}
	ok := m.run(nil)
	return ok && !m.st.Aborted, m.st
}

// FindEmbedding returns one embedding of p into t as a mapping from pattern
// vertex to target vertex, or nil if none exists.
func FindEmbedding(p, t *graph.Graph) []int {
	if p.N() == 0 {
		return []int{}
	}
	if quickReject(p, t) {
		return nil
	}
	out := make([]int, p.N())
	m := matcher{plan: p.Plan(), t: t}
	if !m.run(out) {
		return nil
	}
	return out
}

// CountEmbeddings counts embeddings of p into t, stopping at limit
// (limit <= 0 counts all). Symmetric pattern automorphisms are counted
// separately, as is standard.
func CountEmbeddings(p, t *graph.Graph, limit int) int {
	if p.N() == 0 {
		return 1
	}
	if quickReject(p, t) {
		return 0
	}
	m := matcher{plan: p.Plan(), t: t, count: true, limit: limit}
	m.run(nil)
	return m.found
}

// matcher is one search of a pattern's plan against a target. The search
// visits pattern vertices in plan order: depth d extends a partial
// mapping of the vertices at depths [0, d) by one target vertex, and a
// candidate is kept when its label matches, its degrees suffice, it is
// adjacent (direction- and edge-label-aware) to the images of the
// vertex's already-matched neighbours, and it has at least as many
// unmatched neighbours in each direction as the vertex has pending (the
// one-step lookahead). Children are tried in ascending target-vertex
// order, so the search tree — and with it Stats.Recursions and the
// budget's abort point — does not depend on how candidates are produced.
type matcher struct {
	plan   *graph.Plan
	t      *graph.Graph
	max    int64 // Options.MaxRecursions
	st     Stats
	labels bool // compare edge labels: either graph has them
	count  bool // enumerate embeddings instead of stopping at the first
	limit  int
	found  int
}

// run searches and reports whether it stopped on success: an embedding
// was found, or in counting mode the limit was reached. When out is
// non-nil a found embedding is written to it (pattern vertex → target
// vertex).
func (m *matcher) run(out []int) bool {
	m.labels = m.plan.EdgeLabels() || m.t.HasEdgeLabels()
	n := m.plan.N()
	if tm := m.t.AdjMasks(); tm != nil {
		var img [graph.MaskVertices]int32
		ok := m.searchMasks(tm, img[:n])
		if ok && out != nil {
			m.writeEmbedding(img[:n], out)
		}
		return ok
	}
	s := listPool.Get().(*listState)
	img, pos, used := s.reset(n, m.t.N())
	ok := m.searchLists(img, pos, used)
	if ok && out != nil {
		m.writeEmbedding(img, out)
	}
	listPool.Put(s)
	return ok
}

// writeEmbedding converts per-depth images to out[pattern vertex].
func (m *matcher) writeEmbedding(img []int32, out []int) {
	for d, tv := range img {
		out[m.plan.Vertex(d)] = int(tv)
	}
}

// enter counts a search-tree node and reports whether the budget allows
// expanding it; when it does not, the search is marked aborted.
//
//gclint:noalloc
func (m *matcher) enter() bool {
	m.st.Recursions++
	if m.max > 0 && m.st.Recursions > m.max {
		m.st.Aborted = true
		return false
	}
	return true
}

// complete records a full mapping and reports whether the search stops:
// always when deciding, at the limit when counting.
//
//gclint:noalloc
func (m *matcher) complete() bool {
	if !m.count {
		return true
	}
	m.found++
	return m.limit > 0 && m.found >= m.limit
}

// edgeLabelsMatch reports whether target vertex tv, proposed for depth d,
// carries the pattern's edge labels on its edges to the images of the
// vertex's matched neighbours. Adjacency itself is checked by the caller.
//
//gclint:noalloc
func (m *matcher) edgeLabelsMatch(d int, tv int32, img []int32) bool {
	pl := m.plan
	// A plan without edge labels stands for all-zero labels.
	var ls []int32
	if pl.EdgeLabels() {
		ls = pl.MatchedOutLabels(d)
	}
	for i, j := range pl.MatchedOut(d) {
		if m.t.EdgeLabel(int(tv), int(img[j])) != labelAt(ls, i) {
			return false
		}
	}
	if !pl.Directed() {
		return true
	}
	if pl.EdgeLabels() {
		ls = pl.MatchedInLabels(d)
	}
	for i, j := range pl.MatchedIn(d) {
		if m.t.EdgeLabel(int(img[j]), int(tv)) != labelAt(ls, i) {
			return false
		}
	}
	return true
}

// labelAt returns ls[i] as a label, or 0 when ls is nil.
func labelAt(ls []int32, i int) graph.Label {
	if ls == nil {
		return 0
	}
	return graph.Label(ls[i])
}

// searchMasks is the search for targets of at most graph.MaskVertices
// vertices. Each depth's candidates are one word: the target vertices
// with the right label, minus those already used, intersected with the
// in-mask (out-mask) of every matched out-neighbour's (in-neighbour's)
// image. The lookahead is a popcount. img receives the image of each
// depth; all other state is on the stack.
//
//gclint:noalloc
func (m *matcher) searchMasks(tm *graph.AdjMasks, img []int32) bool {
	pl := m.plan
	n := pl.N()
	directed := pl.Directed()
	var cand [graph.MaskVertices]uint64
	var used uint64
	d := 0
	if !m.enter() {
		return false
	}
	cand[0] = maskCandidates(pl, tm, 0, used, img)
	for {
		c := cand[d]
		if c == 0 {
			if d == 0 {
				return false
			}
			d--
			used &^= 1 << uint(img[d])
			continue
		}
		cand[d] = c & (c - 1)
		tv := int32(bits.TrailingZeros64(c))
		m.st.Candidates++
		// Lookahead. It implies the degree checks: tv is adjacent to the
		// distinct, used images of the vertex's matched neighbours.
		if bits.OnesCount64(tm.Out(int(tv))&^used) < pl.PendingOut(d) {
			continue
		}
		if directed && bits.OnesCount64(tm.In(int(tv))&^used) < pl.PendingIn(d) {
			continue
		}
		if m.labels && !m.edgeLabelsMatch(d, tv, img) {
			continue
		}
		img[d] = tv
		if d+1 == n {
			if m.complete() {
				return true
			}
			continue
		}
		used |= 1 << uint(tv)
		d++
		if !m.enter() {
			return false
		}
		cand[d] = maskCandidates(pl, tm, d, used, img)
	}
}

// maskCandidates returns depth d's candidate word (see searchMasks).
//
//gclint:noalloc
func maskCandidates(pl *graph.Plan, tm *graph.AdjMasks, d int, used uint64, img []int32) uint64 {
	c := tm.Label(pl.Label(d)) &^ used
	for _, j := range pl.MatchedOut(d) {
		c &= tm.In(int(img[j]))
	}
	if pl.Directed() {
		for _, j := range pl.MatchedIn(d) {
			c &= tm.Out(int(img[j]))
		}
	}
	return c
}

// listState is the heap state of searchLists, pooled because the
// pattern and target sizes are unbounded there.
type listState struct {
	ints []int32  // img then pos, one per depth each
	used []uint64 // bitset over target vertices
}

// listPool recycles listState values across searches of large targets.
var listPool = sync.Pool{New: func() any { return new(listState) }}

// reset sizes the state for an n-vertex pattern and an nt-vertex target
// and returns its cleared image, cursor and used-vertex arrays.
func (s *listState) reset(n, nt int) (img, pos []int32, used []uint64) {
	if cap(s.ints) < 2*n {
		s.ints = make([]int32, 2*n)
	}
	words := (nt + 63) / 64
	if cap(s.used) < words {
		s.used = make([]uint64, words)
	}
	s.used = s.used[:words]
	clear(s.used)
	return s.ints[:n], s.ints[n : 2*n], s.used
}

// searchLists is the search for targets with more than graph.MaskVertices
// vertices. A depth whose vertex has a matched neighbour walks that
// anchor image's neighbour list (the first matched out-neighbour's
// in-list, else the first matched in-neighbour's out-list); a depth with
// none walks every target vertex. pos[d] is depth d's cursor into its
// candidate sequence.
//
//gclint:noalloc
func (m *matcher) searchLists(img, pos []int32, used []uint64) bool {
	n := m.plan.N()
	d := 0
	if !m.enter() {
		return false
	}
	pos[0] = 0
	for {
		tv := m.nextListCandidate(d, img, pos, used)
		if tv < 0 {
			if d == 0 {
				return false
			}
			d--
			used[img[d]/64] &^= 1 << uint(img[d]%64)
			continue
		}
		img[d] = tv
		if d+1 == n {
			if m.complete() {
				return true
			}
			continue
		}
		used[tv/64] |= 1 << uint(tv%64)
		d++
		if !m.enter() {
			return false
		}
		pos[d] = 0
	}
}

// nextListCandidate advances depth d's cursor to its next feasible target
// vertex and returns it, or -1 when the depth is exhausted.
//
//gclint:noalloc
func (m *matcher) nextListCandidate(d int, img, pos []int32, used []uint64) int32 {
	pl, t := m.plan, m.t
	outs := pl.MatchedOut(d)
	var ins []int32
	if pl.Directed() {
		ins = pl.MatchedIn(d)
	}
	var list []int32
	end := int32(t.N())
	if len(outs) > 0 {
		list = t.InNeighbors(int(img[outs[0]]))
		end = int32(len(list))
	} else if len(ins) > 0 {
		list = t.OutNeighbors(int(img[ins[0]]))
		end = int32(len(list))
	}
	for pos[d] < end {
		tv := pos[d]
		if list != nil {
			tv = list[tv]
		}
		pos[d]++
		m.st.Candidates++
		if used[tv/64]&(1<<uint(tv%64)) == 0 && m.listFeasible(d, tv, outs, ins, img, used) {
			return tv
		}
	}
	return -1
}

// listFeasible applies the candidate checks of the matcher (see matcher)
// with adjacency lists and HasEdge; outs and ins are depth d's matched
// out- and in-neighbours.
//
//gclint:noalloc
func (m *matcher) listFeasible(d int, tv int32, outs, ins, img []int32, used []uint64) bool {
	pl, t := m.plan, m.t
	v := int(tv)
	if t.Label(v) != pl.Label(d) || t.OutDegree(v) < len(outs)+pl.PendingOut(d) {
		return false
	}
	directed := pl.Directed()
	if directed && t.InDegree(v) < len(ins)+pl.PendingIn(d) {
		return false
	}
	for _, j := range outs {
		if !t.HasEdge(v, int(img[j])) {
			return false
		}
	}
	for _, j := range ins {
		if !t.HasEdge(int(img[j]), v) {
			return false
		}
	}
	if m.labels && !m.edgeLabelsMatch(d, tv, img) {
		return false
	}
	if unused(t.OutNeighbors(v), used) < pl.PendingOut(d) {
		return false
	}
	return !directed || unused(t.InNeighbors(v), used) >= pl.PendingIn(d)
}

// unused counts the vertices of list not set in used.
//
//gclint:noalloc
func unused(list []int32, used []uint64) int {
	k := 0
	for _, w := range list {
		if used[w/64]&(1<<uint(w%64)) == 0 {
			k++
		}
	}
	return k
}
