package ftv

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// GGSX is a GraphGrepSX-style FTV filter: a suffix trie over the
// vertex-label sequences of simple paths with at most MaxLen edges,
// annotated with per-graph occurrence counts.
//
// Soundness: an embedding of q into G maps every directed simple path of q
// to a distinct directed simple path of G with the same label sequence, so
// count_q(f) ≤ count_G(f) for every path feature f is necessary for
// q ⊑ G (and dually for supergraph queries). Both dataset and query paths
// are enumerated as directed traversals, so the counting convention
// cancels out.
//
// # Layout
//
// The trie has one node per distinct label-sequence prefix (a feature),
// numbered densely from 0 in creation order. Nothing is keyed by a map
// and no node is a heap object of its own:
//
//   - Node storage is a directory of fixed-size pages of nodePageSize
//     nodes. A node's children are a slice of packed (edge<<16|vertex)
//     step keys with child ids, sorted by key and binary-searched; its
//     postings are (gid, count) pairs sorted by gid.
//   - Forward rows, the per-graph (node, count) lists the supergraph
//     direction scans, live in pages of fwdPageRows consecutive graph ids:
//     one flat offset array and one flat (node, count) array per page.
//     Each row is ordered rarest feature first (ascending posting-list
//     length at index or insert time), so most graphs fail a supergraph
//     query on their first entry. Row order only affects speed.
//   - Each forward page also keeps its rows' first entries side by side,
//     so a supergraph scan rejects most graphs reading one array.
//   - A query counts its features into a pooled dense per-node []int32,
//     reset through the list of nodes it touched. A subgraph query
//     intersects the posting lists directly, shortest first, checking
//     counts inline (galloping through lists much longer than the
//     candidate list, scanning the others against a candidate bitmap),
//     and builds the result set once, in ascending order.
//
// # Copy-on-write additions
//
// WithGraph never writes memory the receiver can read. It copies the two
// page directories, and then only the node pages and the forward page
// the new graph touches. A posting list is extended in place when the
// spare capacity past its end has not been claimed by another version
// (an atomic claim counter per posting array), and copied with 1/8 extra
// capacity otherwise. Apart from the directories (one pointer per 16
// nodes or graphs), an add therefore costs O(paths(g)) plus at most one
// page copy per touched feature, amortized independent of the dataset
// size.
type GGSX struct {
	maxLen int
	n      int         // indexed id space: number of forward rows
	root   []child     // first-step features, sorted by key
	nodes  []*nodePage // node id → nodes[id>>nodePageShift][id&nodePageMask]
	count  int32       // trie nodes (distinct features)
	fwd    []*fwdPage  // graph id → fwd[gid/fwdPageRows], row gid%fwdPageRows
	bytes  int
}

const (
	nodePageShift = 4
	nodePageSize  = 1 << nodePageShift
	nodePageMask  = nodePageSize - 1
	fwdPageRows   = 16
)

// Estimated footprint per trie node (page slot, parent's child entry,
// posting-array header), per posting or forward entry, and per forward
// row (offset and head), as IndexBytes reports them.
const (
	nodeBytes  = 40 + 8 + 32
	entryBytes = 8
	rowBytes   = 4 + 8
)

type nodePage [nodePageSize]trieNode

type trieNode struct {
	kids []child // sorted by key
	post postList
}

// child is one trie step: the packed step key and the child's node id.
type child struct {
	key uint32
	id  int32
}

// stepKey packs one trie step: the edge label leading to the vertex (0
// for the path's first vertex and for unlabelled edges) and the vertex
// label. Edge labels in the key carry the paper's generalization to
// edge-labelled graphs through the filter.
func stepKey(edge, vertex graph.Label) uint32 { return uint32(edge)<<16 | uint32(vertex) }

type posting struct {
	gid   int32
	count int32
}

type nodeCount struct {
	node  int32
	count int32
}

// postList is one node's posting list: the first n entries of buf.p,
// sorted by gid.
type postList struct {
	buf *postBuf
	n   int32
	min int32 // smallest count among the n postings
}

// postBuf is a posting array shared by the filter versions that extend
// it. len(p) is its full capacity; claimed counts the slots handed out,
// so exactly one version may write each slot past a shared prefix.
type postBuf struct {
	claimed atomic.Int32
	p       []posting
}

func (l postList) postings() []posting { return l.buf.p[:l.n] }

// with returns the list extended by (gid, c); gid exceeds every posted
// gid. The write lands in the shared array when this version is the first
// to claim the next slot, and in a fresh copy otherwise.
func (l postList) with(gid, c int32) postList {
	if l.buf == nil || int(l.n) == len(l.buf.p) || !l.buf.claimed.CompareAndSwap(l.n, l.n+1) {
		nb := &postBuf{p: make([]posting, l.n+l.n/8+4)}
		if l.buf != nil {
			copy(nb.p, l.postings())
		}
		nb.claimed.Store(l.n + 1)
		l.buf = nb
	}
	l.buf.p[l.n] = posting{gid, c}
	if l.n == 0 || c < l.min {
		l.min = c
	}
	l.n++
	return l
}

// fwdPage holds the forward rows of up to fwdPageRows consecutive graph
// ids: row r is ent[off[r]:off[r+1]]. head[r] repeats the row's first
// (rarest) entry next to its neighbours', so the supergraph scan rejects
// most graphs without touching their rows. An empty row's head is
// {0, 0}, which every query passes.
type fwdPage struct {
	off  [fwdPageRows + 1]int32
	head [fwdPageRows]nodeCount
	ent  []nodeCount
}

// NewGGSX builds the index over the dataset, indexing label paths with up
// to maxLen edges (maxLen+1 vertices). maxLen is the "feature size" knob
// of experiment EXP-II; GraphGrepSX's customary default is 4. Tombstoned
// (nil) positions are indexed as empty.
//
// The build writes the final layout directly. Pass 1 enumerates each
// graph's paths into the trie and its forward row; pass 2 fills one
// exactly sized posting array in gid order; pass 3 rewrites every
// forward row in place, rarest feature first, by walking the posting
// lists in ascending length.
func NewGGSX(dataset []*graph.Graph, maxLen int) *GGSX {
	if maxLen < 0 {
		maxLen = 0
	}
	x := &GGSX{maxLen: maxLen, n: len(dataset)}
	s := getScratch(0)
	defer putScratch(s)

	var plen []int32 // postings per node
	total := 0
	var page []nodeCount
	for gid, g := range dataset {
		r := gid % fwdPageRows
		if r == 0 {
			x.fwd = append(x.fwd, new(fwdPage))
		}
		pg := x.fwd[len(x.fwd)-1]
		if g != nil {
			x.insertWalk(s, g, nil)
			if d := int(x.count) - len(plen); d > 0 {
				plen = append(plen, make([]int32, d)...)
			}
			for _, t := range s.touched {
				page = append(page, nodeCount{t, s.counts[t]})
				plen[t]++
			}
			total += len(s.touched)
			s.reset()
		}
		pg.off[r+1] = int32(len(page))
		if r == fwdPageRows-1 || gid == len(dataset)-1 {
			pg.ent = slices.Clone(page)
			page = page[:0]
		}
	}

	arena := make([]posting, total)
	bufs := make([]postBuf, x.count)
	for id, at := int32(0), 0; id < x.count; id++ {
		k := int(plen[id])
		bufs[id].p = arena[at : at+k : at+k]
		x.node(id).post.buf = &bufs[id] // the fill below claims every slot
		at += k
	}
	for gid := 0; gid < x.n; gid++ {
		pg := x.fwd[gid/fwdPageRows]
		r := gid % fwdPageRows
		for _, e := range pg.ent[pg.off[r]:pg.off[r+1]] {
			nd := x.node(e.node)
			nd.post = nd.post.with(int32(gid), e.count)
		}
	}

	order := make([]int32, x.count)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(plen[a], plen[b]), cmp.Compare(a, b))
	})
	next := make([]int32, x.n) // per graph: next free slot of its row
	for gid := range next {
		pg := x.fwd[gid/fwdPageRows]
		next[gid] = pg.off[gid%fwdPageRows]
	}
	for _, id := range order {
		for _, p := range x.node(id).post.postings() {
			x.fwd[p.gid/fwdPageRows].ent[next[p.gid]] = nodeCount{id, p.count}
			next[p.gid]++
		}
	}
	for _, pg := range x.fwd {
		for r := range fwdPageRows {
			if pg.off[r] < pg.off[r+1] {
				pg.head[r] = pg.ent[pg.off[r]]
			}
		}
	}
	x.bytes = nodeBytes*int(x.count) + 2*entryBytes*total + rowBytes*x.n
	return x
}

// node returns trie node id. Callers that write through it must own its
// page (see ownNode).
func (x *GGSX) node(id int32) *trieNode {
	return &x.nodes[id>>nodePageShift][id&nodePageMask]
}

// ownNode returns trie node id for writing, first giving x a private copy
// of its page if the page is still shared with base (nil while NewGGSX
// builds, when every page is private). A node id one past the last page
// opens a new page. x.nodes must already be x's own directory.
func (x *GGSX) ownNode(id int32, base *GGSX) *trieNode {
	p := int(id >> nodePageShift)
	switch {
	case p == len(x.nodes):
		x.nodes = append(x.nodes, new(nodePage))
	case base != nil && p < len(base.nodes) && x.nodes[p] == base.nodes[p]:
		cp := *x.nodes[p]
		x.nodes[p] = &cp
	}
	return &x.nodes[p][id&nodePageMask]
}

// search returns the position of key in the sorted kids and whether it
// is present.
func search(kids []child, key uint32) (int, bool) {
	lo, hi := 0, len(kids)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if kids[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(kids) && kids[lo].key == key
}

// step returns the child of parent (-1 for the root) along key, creating
// it, copy-on-write against base, when it does not exist yet.
func (x *GGSX) step(parent int32, key uint32, base *GGSX) int32 {
	kids := x.root
	if parent >= 0 {
		kids = x.node(parent).kids
	}
	i, ok := search(kids, key)
	if ok {
		return kids[i].id
	}
	id := x.count
	x.count++
	x.ownNode(id, base)
	// Clipped: the insert never shifts entries of an array base can read.
	kids = slices.Insert(kids[:len(kids):len(kids)], i, child{key, id})
	if parent < 0 {
		x.root = kids
	} else {
		x.ownNode(parent, base).kids = kids
	}
	return id
}

// insertWalk enumerates all directed simple paths of g with ≤ maxLen
// edges (following out-edges, which covers both directions for
// undirected graphs) into s, creating trie nodes on demand.
func (x *GGSX) insertWalk(s *ggsxScratch, g *graph.Graph, base *GGSX) {
	s.fitVertices(g.N())
	for v := 0; v < g.N(); v++ {
		id := x.step(-1, stepKey(0, g.Label(v)), base)
		s.bump(id)
		x.insertExtend(s, g, v, id, 0, base)
	}
}

func (x *GGSX) insertExtend(s *ggsxScratch, g *graph.Graph, v int, node int32, edges int, base *GGSX) {
	if edges == x.maxLen {
		return
	}
	s.inPath[v] = true
	for _, w := range g.OutNeighbors(v) {
		if s.inPath[w] {
			continue
		}
		id := x.step(node, stepKey(g.EdgeLabel(v, int(w)), g.Label(int(w))), base)
		s.bump(id)
		x.insertExtend(s, g, int(w), id, edges+1, base)
	}
	s.inPath[v] = false
}

// queryWalk enumerates the query's path features against the existing
// trie into s. Paths absent from the trie set s.missing (meaningful for
// subgraph queries: no dataset graph contains them); no nodes are
// created.
func (x *GGSX) queryWalk(s *ggsxScratch, q *graph.Graph) {
	s.fitVertices(q.N())
	for v := 0; v < q.N(); v++ {
		i, ok := search(x.root, stepKey(0, q.Label(v)))
		if !ok {
			s.missing = true
			continue
		}
		id := x.root[i].id
		s.bump(id)
		x.queryExtend(s, q, v, id, 0)
	}
}

func (x *GGSX) queryExtend(s *ggsxScratch, q *graph.Graph, v int, node int32, edges int) {
	if edges == x.maxLen {
		return
	}
	s.inPath[v] = true
	kids := x.node(node).kids
	for _, w := range q.OutNeighbors(v) {
		if s.inPath[w] {
			continue
		}
		i, ok := search(kids, stepKey(q.EdgeLabel(v, int(w)), q.Label(int(w))))
		if !ok {
			s.missing = true
			continue
		}
		id := kids[i].id
		s.bump(id)
		x.queryExtend(s, q, int(w), id, edges+1)
	}
	s.inPath[v] = false
}

// WithGraph implements InsertableFilter: an incremental, copy-on-write
// insert. Only g's own label paths are enumerated (the walk NewGGSX does
// for one dataset graph); the receiver is never modified, so a reader
// holding it never observes the new gid. Positions between the old id
// space and gid become empty rows (implicit tombstones).
//
// Cost: O(paths(g)) enumeration, one copy of each page directory, one
// page copy per touched node page and for the forward page, and an
// amortized O(1) posting append per feature of g (the new gid is the
// largest, so appending keeps the lists sorted).
func (x *GGSX) WithGraph(gid int, g *graph.Graph) Filter {
	if gid < x.n {
		panic(fmt.Sprintf("ftv: GGSX.WithGraph gid %d is inside the indexed id space [0,%d) — additions only append", gid, x.n))
	}
	x2 := &GGSX{
		maxLen: x.maxLen,
		n:      x.n,
		root:   x.root,
		nodes:  slices.Clone(x.nodes),
		count:  x.count,
		fwd:    make([]*fwdPage, len(x.fwd), (gid+fwdPageRows)/fwdPageRows),
		bytes:  x.bytes,
	}
	copy(x2.fwd, x.fwd)
	for x2.n < gid {
		x2.appendRow(nil, x)
	}
	s := getScratch(x.count)
	defer putScratch(s)
	x2.insertWalk(s, g, x)

	row := make([]nodeCount, len(s.touched))
	for i, t := range s.touched {
		nd := x2.ownNode(t, x)
		nd.post = nd.post.with(int32(gid), s.counts[t])
		row[i] = nodeCount{t, s.counts[t]}
	}
	slices.SortFunc(row, func(a, b nodeCount) int {
		return cmp.Or(cmp.Compare(x2.node(a.node).post.n, x2.node(b.node).post.n), cmp.Compare(a.node, b.node))
	})
	x2.appendRow(row, x)
	x2.bytes += nodeBytes*int(x2.count-x.count) + 2*entryBytes*len(row) + rowBytes*(gid+1-x.n)
	return x2
}

// appendRow appends the forward row of gid x.n, copying the last forward
// page first if it is still shared with base.
func (x *GGSX) appendRow(row []nodeCount, base *GGSX) {
	p, r := x.n/fwdPageRows, x.n%fwdPageRows
	switch {
	case p == len(x.fwd):
		x.fwd = append(x.fwd, new(fwdPage))
	case p < len(base.fwd) && x.fwd[p] == base.fwd[p]:
		cp := *x.fwd[p]
		x.fwd[p] = &cp
	}
	pg := x.fwd[p]
	pg.head[r] = nodeCount{}
	if len(row) > 0 {
		pg.ent = append(pg.ent[:len(pg.ent):len(pg.ent)], row...)
		pg.head[r] = row[0]
	}
	pg.off[r+1] = pg.off[r] + int32(len(row))
	x.n++
}

// Name implements Filter.
func (x *GGSX) Name() string { return "ggsx" }

// MaxLen returns the indexed feature size (path length in edges).
func (x *GGSX) MaxLen() int { return x.maxLen }

// NodeCount returns the number of trie nodes (distinct features).
func (x *GGSX) NodeCount() int { return int(x.count) }

// IndexBytes implements Filter.
func (x *GGSX) IndexBytes() int { return x.bytes }

// Candidates implements Filter. A warm call allocates only the returned
// set.
func (x *GGSX) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	s := getScratch(x.count)
	defer putScratch(s)
	x.queryWalk(s, q)
	if qt == Supergraph {
		return x.supergraphCandidates(s)
	}
	return x.subgraphCandidates(s)
}

// feat is one query feature of a subgraph query with the length of its
// posting list.
type feat struct {
	node, need, plen int32
}

// subgraphCandidates: G is a candidate iff count_G(f) ≥ count_q(f) for all
// query features f. The gid-sorted posting lists are intersected
// directly, shortest first, into an ascending candidate list.
func (x *GGSX) subgraphCandidates(s *ggsxScratch) *bitset.Set {
	if s.missing {
		return bitset.New(x.n) // some query path occurs in no dataset graph
	}
	feats := s.feats[:0]
	for _, t := range s.touched {
		l := x.node(t).post
		if int(l.n) == x.n && l.min >= s.counts[t] {
			continue // every graph qualifies
		}
		feats = append(feats, feat{t, s.counts[t], l.n})
	}
	s.feats = feats
	if len(feats) == 0 {
		return bitset.NewFull(x.n) // empty query, or only universal features
	}
	slices.SortFunc(feats, func(a, b feat) int { return cmp.Compare(a.plen, b.plen) })

	cand := s.cand[:0]
	for _, p := range x.node(feats[0].node).post.postings() {
		if p.count >= feats[0].need {
			cand = append(cand, uint32(p.gid))
		}
	}
	for _, f := range feats[1:] {
		if len(cand) == 0 {
			break
		}
		list := x.node(f.node).post.postings()
		if len(list) <= scanRatio*len(cand) {
			cand = s.scanIntersect(cand, list, f.need, x.n)
		} else {
			cand = gallopIntersect(cand, list, f.need)
		}
	}
	s.cand = cand
	return bitset.FromSorted(x.n, cand)
}

// scanRatio picks each feature's intersection: a posting list at most
// scanRatio times longer than the candidate list is scanned in full
// against a candidate bitmap, a longer one is galloped through. A
// scanned posting is a sequential, branch-free step; a gallop probe is a
// few dependent, mispredicted loads (on 10k molecules the ratio between
// the two is about 30).
const scanRatio = 32

// gallopIntersect keeps the gids of cand that appear in list with a count
// of at least need, compacting cand in place. Both are sorted by gid;
// galloping forward through list costs O(log gap) per candidate.
func gallopIntersect(cand []uint32, list []posting, need int32) []uint32 {
	out := cand[:0]
	j := 0
	for _, g := range cand {
		if j < len(list) && uint32(list[j].gid) < g {
			// Gallop: find hi with list[hi].gid ≥ g, then binary search.
			lo, step := j, 1
			hi := j + 1
			for hi < len(list) && uint32(list[hi].gid) < g {
				lo = hi
				step <<= 1
				hi = j + step
			}
			hi = min(hi, len(list))
			for lo+1 < hi {
				m := int(uint(lo+hi) >> 1)
				if uint32(list[m].gid) < g {
					lo = m
				} else {
					hi = m
				}
			}
			j = hi
		}
		if j == len(list) {
			break
		}
		if uint32(list[j].gid) == g && list[j].count >= need {
			out = append(out, g)
		}
	}
	return out
}

// scanIntersect is gallopIntersect by a full scan of list, testing each
// gid against a bitmap of cand. It may move cand to a larger array.
func (s *ggsxScratch) scanIntersect(cand []uint32, list []posting, need int32, n int) []uint32 {
	if w := n/64 + 1; len(s.bits) < w {
		s.bits = make([]uint64, w)
	}
	bits := s.bits
	for _, g := range cand {
		bits[g>>6] |= 1 << (g & 63)
	}
	lo, hi := cand[0], cand[len(cand)-1]
	// Branch-free: every gid is written at k, and k advances on a hit.
	// Hits never outnumber cand, so one spare slot holds the last write.
	buf := slices.Grow(cand[:0], len(cand)+1)[:len(cand)+1]
	k := 0
	for _, p := range list {
		g := uint32(p.gid)
		if g > hi {
			break
		}
		hit := int(bits[g>>6]>>(g&63)) & 1
		if p.count < need {
			hit = 0
		}
		buf[k] = g
		k += hit
	}
	clear(bits[lo>>6 : hi>>6+1])
	return buf[:k]
}

// supergraphCandidates: G is a candidate iff count_G(f) ≤ count_q(f) for
// all of G's features f, checked row by row against the forward pages.
// Rows list their rarest feature first, so most graphs exit on entry one.
func (x *GGSX) supergraphCandidates(s *ggsxScratch) *bitset.Set {
	qc := s.counts
	cand := s.cand[:0]
	for p, pg := range x.fwd {
		first := p * fwdPageRows
	rows:
		for r := 0; r < min(fwdPageRows, x.n-first); r++ {
			if h := pg.head[r]; qc[h.node] < h.count {
				continue
			}
			for _, e := range pg.ent[pg.off[r]:pg.off[r+1]] {
				if qc[e.node] < e.count {
					continue rows
				}
			}
			cand = append(cand, uint32(first+r))
		}
	}
	s.cand = cand
	return bitset.FromSorted(x.n, cand)
}

// ggsxScratch is the per-call working memory of a path enumeration.
// counts is zero outside touched between uses, and inPath all false.
type ggsxScratch struct {
	counts  []int32 // by node id
	touched []int32 // nodes with a nonzero count, in first-seen order
	inPath  []bool  // by vertex
	missing bool
	feats   []feat
	cand    []uint32
	bits    []uint64
}

var ggsxScratchPool = sync.Pool{New: func() any { return new(ggsxScratch) }}

// getScratch returns a clean scratch with counts for at least nodes trie
// nodes, and never fewer than one (an empty row's head reads counts[0]).
// Each concurrent caller gets its own.
func getScratch(nodes int32) *ggsxScratch {
	s := ggsxScratchPool.Get().(*ggsxScratch)
	s.fitNodes(int(nodes) + 1)
	return s
}

func putScratch(s *ggsxScratch) {
	s.reset()
	ggsxScratchPool.Put(s)
}

// reset zeroes the touched counts and clears the missing flag.
func (s *ggsxScratch) reset() {
	for _, t := range s.touched {
		s.counts[t] = 0
	}
	s.touched = s.touched[:0]
	s.missing = false
}

func (s *ggsxScratch) fitNodes(n int) {
	if len(s.counts) < n {
		c := make([]int32, n+n/4)
		copy(c, s.counts)
		s.counts = c
	}
}

func (s *ggsxScratch) fitVertices(n int) {
	if len(s.inPath) < n {
		s.inPath = make([]bool, n)
	}
}

// bump counts one occurrence of node id.
func (s *ggsxScratch) bump(id int32) {
	s.fitNodes(int(id) + 1)
	if s.counts[id] == 0 {
		s.touched = append(s.touched, id)
	}
	s.counts[id]++
}
