// Package ftv implements "Method M" of GraphCache: filter-then-verify
// (FTV) subgraph/supergraph query processing over a graph dataset.
//
// A Filter prunes the dataset to a candidate set C_M that provably
// contains the query's full answer set; a verifier (VF2 by default) then
// tests each candidate. Three filters are provided:
//
//   - GGSX: a from-scratch implementation of the GraphGrepSX idea
//     (Bonnici et al., PRIB 2010): a suffix trie over vertex-label paths of
//     bounded length with per-graph occurrence counts. This is the Method M
//     the demo deployment uses.
//   - LabelFilter: label-multiset and size pruning only (a cheap baseline).
//   - NoFilter: no pruning — Method M degenerates to a pure SI algorithm.
//
// Filtering is sound in both query directions: for a subgraph query the
// candidates are graphs whose features dominate the query's; for a
// supergraph query, graphs whose features are dominated by the query's.
package ftv

import (
	"fmt"

	"graphcache/internal/bitset"
	"graphcache/internal/graph"
)

// QueryType distinguishes the two query semantics of the paper.
type QueryType uint8

const (
	// Subgraph queries return dataset graphs containing the pattern.
	Subgraph QueryType = iota
	// Supergraph queries return dataset graphs contained in the pattern.
	Supergraph
)

// String returns "subgraph" or "supergraph".
func (t QueryType) String() string {
	if t == Supergraph {
		return "supergraph"
	}
	return "subgraph"
}

// Filter narrows a dataset to a candidate set guaranteed to contain the
// query's answer set (no false negatives; false positives are verified
// away later).
type Filter interface {
	// Name identifies the filter in reports.
	Name() string
	// Candidates returns the candidate set for query q as a bitset over
	// dataset positions. Implementations must not retain q.
	Candidates(q *graph.Graph, qt QueryType) *bitset.Set
	// IndexBytes estimates the heap footprint of the filter's index —
	// the space-overhead series of experiment EXP-II.
	IndexBytes() int
}

// InsertableFilter is the optional incremental-maintenance capability of a
// Filter: WithGraph returns a NEW filter whose candidate sets (after the
// method's live-id mask) are identical to rebuilding the filter from
// scratch over the dataset with g appended at position gid, without
// re-indexing any existing graph. Implementations are copy-on-write: the
// receiver is never modified, so snapshots holding it keep answering for
// their own epoch, and the returned filter shares all untouched index
// structure with the receiver.
//
// gid must be ≥ the filter's current dataset size (additions only ever
// append — ids are never reused); positions between the old size and gid
// are indexed as tombstones. Method.AddGraph prefers this path over the
// FilterFactory rebuild whenever the current filter implements it: the
// expensive work — feature extraction — is O(graph), never the O(dataset)
// re-enumeration of every existing graph's features a rebuild pays. The
// COW bookkeeping on top is filter-specific:
//
//   - GGSX copies its two page directories (one pointer per 16 trie nodes
//     and per 16 graphs) and only the pages the new graph touches, and
//     appends to each touched posting list in place unless another
//     version already claimed the slot. Apart from the directories, its
//     add cost is proportional to the new graph, not to the dataset.
//   - StarFilter clones its inverted map and forward slice shallowly,
//     sharing every untouched posting list, and copies each touched list.
//   - LabelFilter copies its per-graph rows; NoFilter copies nothing.
//
// All bundled filters implement InsertableFilter.
type InsertableFilter interface {
	Filter
	WithGraph(gid int, g *graph.Graph) Filter
}

// RebuildOnly wraps a filter so it no longer advertises the
// InsertableFilter capability, forcing Method.AddGraph down the full
// FilterFactory rebuild path. It is the measurable baseline for the
// incremental-insert comparison (benchmarks and tests); Candidates,
// Name and IndexBytes delegate unchanged.
func RebuildOnly(f Filter) Filter { return rebuildOnly{f} }

type rebuildOnly struct{ Filter }

// LabelFilter prunes by vertex count, edge count and label-multiset
// dominance. It needs only O(1) state per dataset graph.
type LabelFilter struct {
	n       int
	vectors []graph.LabelVector
	sizes   [][2]int // (V, E) per graph
	bytes   int
}

// NewLabelFilter builds a LabelFilter over the dataset.
func NewLabelFilter(dataset []*graph.Graph) *LabelFilter {
	f := &LabelFilter{
		n:       len(dataset),
		vectors: make([]graph.LabelVector, len(dataset)),
		sizes:   make([][2]int, len(dataset)),
	}
	for i, g := range dataset {
		if g == nil { // tombstoned id: sentinel sizes match no query
			f.sizes[i] = [2]int{-1, -1}
			continue
		}
		f.vectors[i] = graph.LabelVectorOf(g)
		f.sizes[i] = [2]int{g.N(), g.M()}
		f.bytes += 8*len(f.vectors[i]) + 16
	}
	return f
}

// Name implements Filter.
func (f *LabelFilter) Name() string { return "label" }

// IndexBytes implements Filter.
func (f *LabelFilter) IndexBytes() int { return f.bytes }

// WithGraph implements InsertableFilter: only the new graph's label vector
// and sizes are computed; every existing row is carried over by a flat
// copy.
func (f *LabelFilter) WithGraph(gid int, g *graph.Graph) Filter {
	if gid < f.n {
		panic(fmt.Sprintf("ftv: LabelFilter.WithGraph gid %d is inside the indexed id space [0,%d) — additions only append", gid, f.n))
	}
	n := gid + 1
	f2 := &LabelFilter{
		n:       n,
		vectors: make([]graph.LabelVector, n),
		sizes:   make([][2]int, n),
		bytes:   f.bytes,
	}
	copy(f2.vectors, f.vectors)
	copy(f2.sizes, f.sizes)
	for i := f.n; i < gid; i++ {
		f2.sizes[i] = [2]int{-1, -1} // implicit tombstones: match no query
	}
	f2.vectors[gid] = graph.LabelVectorOf(g)
	f2.sizes[gid] = [2]int{g.N(), g.M()}
	f2.bytes += 8*len(f2.vectors[gid]) + 16
	return f2
}

// Candidates implements Filter.
func (f *LabelFilter) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	qv := graph.LabelVectorOf(q)
	out := bitset.New(f.n)
	for i := 0; i < f.n; i++ {
		if f.sizes[i][0] < 0 {
			continue // tombstoned
		}
		switch qt {
		case Subgraph:
			if q.N() <= f.sizes[i][0] && q.M() <= f.sizes[i][1] && qv.DominatedBy(f.vectors[i]) {
				out.Add(i)
			}
		case Supergraph:
			if f.sizes[i][0] <= q.N() && f.sizes[i][1] <= q.M() && f.vectors[i].DominatedBy(qv) {
				out.Add(i)
			}
		}
	}
	return out
}

// NoFilter performs no pruning: every dataset graph is a candidate.
// Method M with NoFilter is a plain SI algorithm in the paper's taxonomy.
type NoFilter struct {
	n int
}

// NewNoFilter returns a NoFilter for a dataset of n graphs.
func NewNoFilter(n int) *NoFilter { return &NoFilter{n: n} }

// Name implements Filter.
func (f *NoFilter) Name() string { return "none" }

// IndexBytes implements Filter.
func (f *NoFilter) IndexBytes() int { return 0 }

// Candidates implements Filter.
func (f *NoFilter) Candidates(q *graph.Graph, qt QueryType) *bitset.Set {
	return bitset.NewFull(f.n)
}

// WithGraph implements InsertableFilter: a NoFilter only tracks the id
// space (tombstones are masked by the method's live set either way).
func (f *NoFilter) WithGraph(gid int, g *graph.Graph) Filter {
	if gid < f.n {
		panic(fmt.Sprintf("ftv: NoFilter.WithGraph gid %d is inside the indexed id space [0,%d) — additions only append", gid, f.n))
	}
	return &NoFilter{n: gid + 1}
}
