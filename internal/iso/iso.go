// Package iso implements subgraph-isomorphism testing for vertex-labelled
// graphs, undirected or directed, with optional edge labels — the
// Verifier of GraphCache's Method M and the engine behind sub/super
// cache-hit detection.
//
// Two engines are provided:
//
//   - VF2 (Cordella et al., TPAMI 2004): the default verifier, implementing
//     non-induced subgraph isomorphism with connectivity-aware ordering and
//     one-step lookahead pruning. VF2, FindEmbedding and CountEmbeddings
//     share one plan-driven matcher. The pattern-side work — visit order,
//     per-depth pending-neighbour counts, the depths of already-matched
//     neighbours — is the pattern's memoized graph.Plan, built once per
//     graph rather than once per candidate (after GraphMini, Liu et al.).
//     For targets of at most 64 vertices, which covers every molecule,
//     candidates come from word operations on the target's memoized
//     graph.AdjMasks and the lookahead is a popcount; larger targets walk
//     an anchor's neighbour list with the same plan. Both paths try
//     children in ascending target-vertex order, so they expand the same
//     search tree (pinned by a golden table of verdicts, budget aborts
//     and recursion counts).
//   - Ullmann (1976): the classic candidate-matrix algorithm with bitset
//     refinement, kept as an independent baseline and cross-check.
//
// Semantics: SubIso(p, t) == true iff there is an injective mapping
// f: V(p) → V(t) with label(v) == label(f(v)) for every vertex and
// {f(u), f(v)} ∈ E(t) for every {u, v} ∈ E(p). Edges of t outside the image
// are allowed (non-induced matching), matching the paper's setting.
package iso

import (
	"slices"

	"graphcache/internal/graph"
)

// Stats reports the work performed by a single matcher invocation.
type Stats struct {
	// Recursions is the number of search-tree nodes expanded.
	Recursions int64
	// Candidates is the number of (pattern vertex, target vertex) pairs
	// the feasibility checks ran on. For targets of at most 64 vertices
	// these are only the pairs that survive the label, used-vertex and
	// adjacency masks, so the count depends on the candidate path, not
	// only on the search tree.
	Candidates int64
	// Aborted is true when the search hit Options.MaxRecursions before
	// finding an answer; the boolean result is then false and unreliable.
	Aborted bool
}

// Options bounds a matcher invocation.
type Options struct {
	// MaxRecursions caps search-tree nodes; 0 means unlimited. When the cap
	// is hit the match returns false with Stats.Aborted set.
	MaxRecursions int64
}

// SubIso reports whether pattern p is (non-induced) subgraph-isomorphic to
// target t using VF2.
func SubIso(p, t *graph.Graph) bool {
	ok, _ := VF2(p, t, Options{})
	return ok
}

// Isomorphic reports whether a and b are isomorphic labelled graphs.
// A non-induced embedding between graphs of equal vertex and edge count is
// necessarily a full isomorphism, so one VF2 run suffices after the size
// pre-checks.
func Isomorphic(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	if !graph.LabelVectorOf(a).DominatedBy(graph.LabelVectorOf(b)) {
		return false
	}
	return SubIso(a, b)
}

// quickReject applies cheap necessary conditions for p ⊑ t: matching
// directedness, size, and per-label sorted-degree dominance (each pattern
// vertex must map to a same-labelled target vertex of at least its
// degree, injectively, which the per-label degree sequences sorted
// descending must permit; this subsumes label-multiset dominance). The
// sequences are the graphs' memoized LabelDegreeKeys, compared label
// group by label group in one forward pass, so repeated probes against
// the same graphs — the common case when verifying a candidate list —
// allocate nothing here.
//
//gclint:noalloc
func quickReject(p, t *graph.Graph) bool {
	if p.Directed() != t.Directed() {
		return true // mixed-directedness matching is undefined; no match
	}
	if p.N() > t.N() || p.M() > t.M() {
		return true
	}
	// Keys are label<<16 | (0xFFFF - degree), sorted ascending: a label's
	// vertices are contiguous, largest degree first, and a larger key
	// within a label means a smaller degree.
	pk, tk := p.LabelDegreeKeys(), t.LabelDegreeKeys()
	j := 0
	for i := 0; i < len(pk); {
		l := pk[i] >> 16
		skip, _ := slices.BinarySearch(tk[j:], l<<16) // to the start of l's group
		j += skip
		// The k-th largest pattern degree of label l must fit under the
		// k-th largest target degree of l.
		for ; i < len(pk) && pk[i]>>16 == l; i, j = i+1, j+1 {
			if j == len(tk) || tk[j]>>16 != l || tk[j] > pk[i] {
				return true
			}
		}
	}
	return false
}
