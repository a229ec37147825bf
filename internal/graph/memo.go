package graph

import (
	"slices"
	"sort"
	"sync/atomic"
)

// Memoized derived summaries.
//
// Graphs are immutable after Build, so summaries that depend only on the
// structure can be computed once and shared by every reader. The
// subgraph-isomorphism hot path needs three of them, split by the role a
// graph plays in a test:
//
//   - LabelDegreeKeys (pattern and target): the per-label degree
//     sequences quickReject compares, as one sorted []uint32.
//   - Plan (pattern only): the matcher's search plan, built once per
//     graph instead of once per candidate.
//   - AdjMasks (target only, at most 64 vertices): per-vertex adjacency
//     and per-label vertex sets as uint64 words, so candidate generation
//     and the lookahead are word operations.
//
// The label vector and the WL fingerprint complete the set. Each summary
// sits behind its own atomic pointer so a dataset graph that is only ever
// a verification *target* never pays for a plan, and one that is only
// ever a pattern never pays for masks. Two goroutines racing on first use
// may both compute the summary; the values are identical and the loser's
// copy is garbage, so no further synchronization is needed. Callers must
// treat every returned value as read-only.

// LabelDegreeKeys returns one key per vertex, label<<16 | (0xFFFF -
// degree), sorted ascending: vertices grouped by label, each group
// ordered by degree descending. Degrees (out-degrees for directed graphs)
// above 0xFFFF are clamped, which only weakens the comparisons built on
// the keys. The result is memoized on the graph; callers must not modify
// it.
//
//gclint:loads memoDegKeys
func (g *Graph) LabelDegreeKeys() []uint32 {
	if k := g.memoDegKeys.Load(); k != nil {
		return *k
	}
	keys := make([]uint32, g.N())
	for v := range keys {
		keys[v] = uint32(g.labels[v])<<16 | uint32(0xFFFF-min(g.Degree(v), 0xFFFF))
	}
	slices.Sort(keys)
	g.memoDegKeys.Store(&keys)
	return keys
}

// Plan is a pattern's search plan: the matcher's visit order with, per
// depth, everything a candidate check needs from the pattern side. Depth
// d has matched exactly the vertices at depths [0, d), so the pending
// (still unmatched) neighbour counts and the already-matched neighbours
// are static per depth. Everything but the labels, which are the graph's
// own slice, lives in one []int32.
//
// Layout: buf[0] is the offset of the first entry, then one fixed-stride
// record per depth, then the matched-neighbour depths of every depth (its
// out-neighbours, then its in-neighbours), then, when the graph has edge
// labels, the edge label of each of those entries in parallel. A record's
// last field is the end of its entries, so the field just before a
// record is the start of them. Undirected graphs store only the out
// fields: every neighbour is an out-neighbour. Degrees are not stored:
// a vertex's degree is its pending count plus its matched count.
type Plan struct {
	buf        []int32
	labels     []Label // the graph's vertex labels
	stride     int32   // fields per record: planUndirected or planDirected
	entries    int32   // matched-neighbour entries; also the distance from an entry to its label
	edgeLabels bool
}

// Record fields. Undirected records stop after pfOutEnd.
const (
	pfVertex  = iota // pattern vertex at this depth
	pfPendOut        // out-neighbours not yet matched at this depth
	pfOutEnd         // end of this depth's out entries, start of its in entries
	pfPendIn         // directed: in-neighbours not yet matched
	pfInEnd          // directed: end of this depth's in entries

	planUndirected = pfOutEnd + 1
	planDirected   = pfInEnd + 1
)

// rec returns the offset of depth d's record.
func (p *Plan) rec(d int) int { return 1 + d*int(p.stride) }

// N returns the number of depths, the pattern's vertex count.
func (p *Plan) N() int { return int(p.buf[0]-1) / int(p.stride) }

// Directed reports whether the plan is of a directed graph.
func (p *Plan) Directed() bool { return p.stride == planDirected }

// EdgeLabels reports whether the plan carries edge labels.
func (p *Plan) EdgeLabels() bool { return p.edgeLabels }

// Vertex returns the pattern vertex matched at depth d.
func (p *Plan) Vertex(d int) int { return int(p.buf[p.rec(d)+pfVertex]) }

// Label returns the label of the vertex at depth d.
func (p *Plan) Label(d int) Label { return p.labels[p.Vertex(d)] }

// PendingOut returns how many out-neighbours (neighbours, if undirected)
// of the vertex at depth d lie at depths > d.
func (p *Plan) PendingOut(d int) int { return int(p.buf[p.rec(d)+pfPendOut]) }

// PendingIn returns how many in-neighbours of the vertex at depth d of a
// directed plan lie at depths > d.
func (p *Plan) PendingIn(d int) int { return int(p.buf[p.rec(d)+pfPendIn]) }

// MatchedOut returns the depths (< d) of the out-neighbours of the
// vertex at depth d — every neighbour, for undirected graphs — in
// adjacency order.
func (p *Plan) MatchedOut(d int) []int32 {
	r := p.rec(d)
	return p.buf[p.buf[r-1]:p.buf[r+pfOutEnd]]
}

// MatchedIn returns the depths (< d) of the in-neighbours of the vertex
// at depth d of a directed plan, in adjacency order.
func (p *Plan) MatchedIn(d int) []int32 {
	r := p.rec(d)
	return p.buf[p.buf[r+pfOutEnd]:p.buf[r+pfInEnd]]
}

// MatchedOutLabels returns the edge labels parallel to MatchedOut(d); the
// plan must carry edge labels.
func (p *Plan) MatchedOutLabels(d int) []int32 {
	r := p.rec(d)
	return p.buf[p.entries+p.buf[r-1] : p.entries+p.buf[r+pfOutEnd]]
}

// MatchedInLabels returns the edge labels parallel to MatchedIn(d); the
// plan must be directed and carry edge labels.
func (p *Plan) MatchedInLabels(d int) []int32 {
	r := p.rec(d)
	return p.buf[p.entries+p.buf[r+pfOutEnd] : p.entries+p.buf[r+pfInEnd]]
}

// Plan returns the graph's search plan. The visit order starts from the
// highest-degree vertex and grows connected (in the weak sense for
// directed graphs): each next vertex is the one with the most
// already-ordered neighbours, ties broken by higher total degree and then
// by lower id, and components are chained when the graph is
// disconnected. The result is memoized on the graph; callers must not
// modify it.
//
//gclint:loads memoPlan
func (g *Graph) Plan() *Plan {
	if p := g.memoPlan.Load(); p != nil {
		return p
	}
	p := g.buildPlan()
	g.memoPlan.Store(p)
	return p
}

func (g *Graph) buildPlan() *Plan {
	n := g.N()
	// depth[v] is v's position in the visit order, n while unordered;
	// conn[v] counts v's ordered neighbours (either direction).
	depth := make([]int32, 2*n)
	conn := depth[n:]
	depth = depth[:n]
	for v := range depth {
		depth[v] = int32(n)
	}
	totalDeg := func(v int) int { return g.OutDegree(v) + g.InDegree(v) }
	order := make([]int32, 0, n)
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if depth[v] < int32(n) {
				continue
			}
			if best == -1 || conn[v] > conn[best] || (conn[v] == conn[best] && totalDeg(v) > totalDeg(best)) {
				best = v
			}
		}
		depth[best] = int32(len(order))
		order = append(order, int32(best))
		for _, w := range g.adj[best] {
			conn[w]++
		}
		if g.directed {
			for _, w := range g.radj[best] {
				conn[w]++
			}
		}
	}

	p := &Plan{labels: g.labels, stride: planUndirected, entries: int32(g.m), edgeLabels: g.HasEdgeLabels()}
	if g.directed {
		p.stride = planDirected
	}
	// Every edge yields one entry, at the depth of its later endpoint.
	next := 1 + int32(n)*p.stride
	size := next + p.entries
	if p.edgeLabels {
		size += p.entries
	}
	p.buf = make([]int32, size)
	p.buf[0] = next
	emit := func(d int32, u, w int) {
		p.buf[next] = d
		if p.edgeLabels {
			p.buf[next+p.entries] = int32(g.EdgeLabel(u, w))
		}
		next++
	}
	for d, v32 := range order {
		v := int(v32)
		rec := p.buf[p.rec(d):]
		rec[pfVertex] = v32
		for _, w := range g.adj[v] {
			if dw := depth[w]; dw < int32(d) {
				emit(dw, v, int(w))
			} else {
				rec[pfPendOut]++
			}
		}
		rec[pfOutEnd] = next
		if g.directed {
			for _, w := range g.radj[v] {
				if dw := depth[w]; dw < int32(d) {
					emit(dw, int(w), v)
				} else {
					rec[pfPendIn]++
				}
			}
			rec[pfInEnd] = next
		}
	}
	return p
}

// MaskVertices is the largest vertex count AdjMasks covers: one bit per
// vertex in a uint64.
const MaskVertices = 64

// AdjMasks are a graph's adjacency and label classes as uint64 vertex
// sets, for graphs with at most MaskVertices vertices. One []uint64 holds
// the n out-masks, then the n in-masks when directed, then (label, mask)
// pairs in ascending label order.
type AdjMasks struct {
	w  []uint64
	in int32 // offset of the in-masks: 0 (the out-masks) when undirected
	lp int32 // offset of the label pairs
}

// Out returns the set of out-neighbours (neighbours, if undirected) of v.
func (m *AdjMasks) Out(v int) uint64 { return m.w[v] }

// In returns the set of in-neighbours of v (neighbours, if undirected).
func (m *AdjMasks) In(v int) uint64 { return m.w[int(m.in)+v] }

// Label returns the set of vertices labelled l.
func (m *AdjMasks) Label(l Label) uint64 {
	for i := int(m.lp); i < len(m.w); i += 2 {
		if m.w[i] == uint64(l) {
			return m.w[i+1]
		}
	}
	return 0
}

// AdjMasks returns the graph's adjacency masks, or nil when it has more
// than MaskVertices vertices. The result is memoized on the graph;
// callers must not modify it.
//
//gclint:loads memoMasks
func (g *Graph) AdjMasks() *AdjMasks {
	if g.N() > MaskVertices {
		return nil
	}
	if m := g.memoMasks.Load(); m != nil {
		return m
	}
	n := g.N()
	var ls [MaskVertices]Label
	labels := ls[:n]
	copy(labels, g.labels)
	slices.Sort(labels)
	labels = slices.Compact(labels)
	m := &AdjMasks{}
	if g.directed {
		m.in = int32(n)
	}
	m.lp = m.in + int32(n)
	m.w = make([]uint64, int(m.lp)+2*len(labels))
	pairs := m.w[m.lp:]
	for i, l := range labels {
		pairs[2*i] = uint64(l)
	}
	for v := 0; v < n; v++ {
		for _, w := range g.adj[v] {
			m.w[v] |= 1 << uint(w)
		}
		if g.directed {
			for _, w := range g.radj[v] {
				m.w[n+v] |= 1 << uint(w)
			}
		}
		i, _ := slices.BinarySearch(labels, g.labels[v])
		pairs[2*i+1] |= 1 << uint(v)
	}
	g.memoMasks.Store(m)
	return m
}

// labelVector returns the memoized LabelVector (see LabelVectorOf).
//
//gclint:loads memoLabelVec
func (g *Graph) labelVector() LabelVector {
	if v := g.memoLabelVec.Load(); v != nil {
		return *v
	}
	counts := g.LabelCounts()
	out := make(LabelVector, 0, len(counts))
	for l, c := range counts {
		out = append(out, LabelCount{l, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	g.memoLabelVec.Store(&out)
	return out
}

// memoSet is the set of lazily-computed summary slots embedded in Graph.
// It is excluded from WithID's shallow copy semantics manually: atomic
// values must not be copied, so WithID re-shares the already computed
// pointers instead of copying the struct.
type memoSet struct {
	//gclint:snapshot memoDegKeys
	memoDegKeys atomic.Pointer[[]uint32]
	//gclint:snapshot memoPlan
	memoPlan atomic.Pointer[Plan]
	//gclint:snapshot memoMasks
	memoMasks atomic.Pointer[AdjMasks]
	//gclint:snapshot memoLabelVec
	memoLabelVec atomic.Pointer[LabelVector]
	//gclint:snapshot memoFP
	memoFP atomic.Pointer[fpMemo]
}

// fpMemo caches the WL fingerprint for one round count — the cache keeps
// only the most recently requested rounds value, which suffices because
// every production caller uses a fixed count.
type fpMemo struct {
	rounds int
	fp     Fingerprint
}

// shareFrom copies the memoized summary pointers from src. Sound only
// when the receiver describes the same structure as src (labels and
// adjacency shared), as in WithID.
//
//gclint:loads memoDegKeys src
//gclint:loads memoPlan src
//gclint:loads memoMasks src
//gclint:loads memoLabelVec src
//gclint:loads memoFP src
func (m *memoSet) shareFrom(src *memoSet) {
	m.memoDegKeys.Store(src.memoDegKeys.Load())
	m.memoPlan.Store(src.memoPlan.Load())
	m.memoMasks.Store(src.memoMasks.Load())
	m.memoLabelVec.Store(src.memoLabelVec.Load())
	m.memoFP.Store(src.memoFP.Load())
}
