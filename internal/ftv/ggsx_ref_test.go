package ftv_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// refGGSX is the naive GGSX the flat index is checked against: one map
// from label path to occurrence count per graph, and plain count
// dominance. Tombstones (nil graphs) have no paths, so a subgraph query
// with any path excludes them and a supergraph query keeps them.
type refGGSX struct {
	maxLen int
	counts []map[string]int32
}

func newRefGGSX(dataset []*graph.Graph, maxLen int) *refGGSX {
	r := &refGGSX{maxLen: maxLen}
	for _, g := range dataset {
		r.counts = append(r.counts, refPathCounts(g, maxLen))
	}
	return r
}

// with returns a copy extended like GGSX.WithGraph: empty rows up to gid,
// then g.
func (r *refGGSX) with(gid int, g *graph.Graph) *refGGSX {
	r2 := &refGGSX{maxLen: r.maxLen, counts: append([]map[string]int32(nil), r.counts...)}
	for len(r2.counts) < gid {
		r2.counts = append(r2.counts, nil)
	}
	r2.counts = append(r2.counts, refPathCounts(g, r.maxLen))
	return r2
}

// refPathCounts counts the directed simple paths of g with at most maxLen
// edges, keyed by their (edge label, vertex label) sequence.
func refPathCounts(g *graph.Graph, maxLen int) map[string]int32 {
	out := map[string]int32{}
	if g == nil {
		return out
	}
	inPath := make([]bool, g.N())
	var walk func(v int, key []byte, edges int)
	walk = func(v int, key []byte, edges int) {
		out[string(key)]++
		if edges == maxLen {
			return
		}
		inPath[v] = true
		for _, w := range g.OutNeighbors(v) {
			if !inPath[w] {
				next := binary.BigEndian.AppendUint16(append([]byte(nil), key...), uint16(g.EdgeLabel(v, int(w))))
				walk(int(w), binary.BigEndian.AppendUint16(next, uint16(g.Label(int(w)))), edges+1)
			}
		}
		inPath[v] = false
	}
	for v := 0; v < g.N(); v++ {
		walk(v, binary.BigEndian.AppendUint16([]byte{0, 0}, uint16(g.Label(v))), 0)
	}
	return out
}

func dominates(big, small map[string]int32) bool {
	for f, c := range small {
		if big[f] < c {
			return false
		}
	}
	return true
}

func (r *refGGSX) candidates(q *graph.Graph, qt ftv.QueryType) *bitset.Set {
	qc := refPathCounts(q, r.maxLen)
	out := bitset.New(len(r.counts))
	for gid, gc := range r.counts {
		if (qt == ftv.Subgraph && dominates(gc, qc)) || (qt == ftv.Supergraph && dominates(qc, gc)) {
			out.Add(gid)
		}
	}
	return out
}

// requireSameAsRef fails unless x and r return exactly the same candidate
// set, unmasked, for every query in both directions.
func requireSameAsRef(t *testing.T, what string, x ftv.Filter, r *refGGSX, queries []*graph.Graph) {
	t.Helper()
	for qi, q := range queries {
		for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
			got, want := x.Candidates(q, qt), r.candidates(q, qt)
			if !got.Equal(want) {
				t.Fatalf("%s: query %d (%s, %v): GGSX %v, reference %v", what, qi, qt, q, got, want)
			}
		}
	}
}

// refQueries draws subgraph- and supergraph-shaped queries from the
// graphs, plus whole graphs, the empty graph and an unseen label.
func refQueries(rng *rand.Rand, graphs []*graph.Graph, n int) []*graph.Graph {
	sampler := gen.NewAIDSLabelSampler(8)
	qs := []*graph.Graph{
		graph.MustNew(nil, nil),
		graph.MustNew([]graph.Label{1000}, nil),
	}
	var live []*graph.Graph
	for _, g := range graphs {
		if g != nil {
			live = append(live, g)
		}
	}
	for i := 0; i < n; i++ {
		src := live[rng.Intn(len(live))]
		switch i % 4 {
		case 0, 1:
			qs = append(qs, gen.ExtractConnectedSubgraph(rng, src, 1+rng.Intn(10)))
		case 2:
			if src.Directed() {
				qs = append(qs, src) // Augment builds undirected graphs
			} else {
				qs = append(qs, gen.Augment(rng, src, 1+rng.Intn(3), rng.Intn(3), sampler))
			}
		default:
			qs = append(qs, src)
		}
	}
	return qs
}

// TestGGSXMatchesReference is the differential test of the flat index:
// its candidate sets equal the naive reference's exactly, in both
// directions, over molecule and circuit (directed, edge-labelled)
// datasets with nil tombstones, through chains of WithGraph inserts that
// open implicit tombstones, and on two versions forked from one receiver.
func TestGGSXMatchesReference(t *testing.T) {
	small := gen.MoleculeConfig{MinV: 4, MaxV: 12, RingFrac: 0.2, MaxDegree: 4, Labels: 3}
	datasets := map[string]func(rng *rand.Rand, n int) []*graph.Graph{
		"molecules": func(rng *rand.Rand, n int) []*graph.Graph {
			return gen.Molecules(rng, n, gen.DefaultMoleculeConfig())
		},
		"small-alphabet": func(rng *rand.Rand, n int) []*graph.Graph { return gen.Molecules(rng, n, small) },
		"circuits": func(rng *rand.Rand, n int) []*graph.Graph {
			return gen.Circuits(rng, n, gen.DefaultCircuitConfig())
		},
	}
	for name, build := range datasets {
		for _, maxLen := range []int{0, 2, 4} {
			t.Run(fmt.Sprintf("%s/L%d", name, maxLen), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name)*10 + maxLen)))
				dataset := build(rng, 40)
				for i := 3; i < len(dataset); i += 7 {
					dataset[i] = nil
				}
				extra := build(rng, 12)
				queries := refQueries(rng, append(append([]*graph.Graph(nil), dataset...), extra...), 40)

				var x ftv.Filter = ftv.NewGGSX(dataset, maxLen)
				r := newRefGGSX(dataset, maxLen)
				requireSameAsRef(t, "build", x, r, queries)

				gid := len(dataset)
				var mid ftv.Filter
				var midRef *refGGSX
				for i, g := range extra {
					if i%4 == 3 {
						gid += 1 + i%3 // skip ids: implicit tombstones
					}
					x = x.(ftv.InsertableFilter).WithGraph(gid, g)
					r = r.with(gid, g)
					gid++
					requireSameAsRef(t, "insert", x, r, queries)
					if i == len(extra)/2 {
						mid, midRef = x, r
					}
				}

				requireForksIsolated(t, mid, midRef, extra, queries)
				requireForksIsolated(t, x, r, extra, queries)
			})
		}
	}
}

// requireForksIsolated inserts two different graphs into the same base
// version. The tip of a chain has unclaimed posting slots the two forks
// compete for; a version with descendants has none. Each fork must see
// only its own graph, and the base neither.
func requireForksIsolated(t *testing.T, base ftv.Filter, baseRef *refGGSX, graphs []*graph.Graph, queries []*graph.Graph) {
	t.Helper()
	n := len(baseRef.counts)
	a := base.(ftv.InsertableFilter).WithGraph(n, graphs[0])
	b := base.(ftv.InsertableFilter).WithGraph(n+1, graphs[1])
	requireSameAsRef(t, "fork a", a, baseRef.with(n, graphs[0]), queries)
	requireSameAsRef(t, "fork b", b, baseRef.with(n+1, graphs[1]), queries)
	requireSameAsRef(t, "fork base", base, baseRef, queries)
}

// TestGGSXConcurrentForks races WithGraph calls on one receiver against
// each other and against readers of the receiver. Exactly one fork wins
// each unclaimed posting slot; every fork must still equal its own
// reference and the receiver its old one. Under -race this also checks
// that no fork writes memory another version reads.
func TestGGSXConcurrentForks(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dataset := gen.Molecules(rng, 30, gen.DefaultMoleculeConfig())
	extra := gen.Molecules(rng, 4, gen.DefaultMoleculeConfig())
	queries := refQueries(rng, append(append([]*graph.Graph(nil), dataset...), extra...), 12)
	// A chain tip has spare posting capacity for the forks to contend for.
	base := ftv.NewGGSX(dataset, 4).WithGraph(len(dataset), extra[0])
	ref := newRefGGSX(dataset, 4).with(len(dataset), extra[0])

	var wg sync.WaitGroup
	forks := make([]ftv.Filter, len(extra))
	for i, g := range extra {
		wg.Add(2)
		go func() {
			defer wg.Done()
			forks[i] = base.(ftv.InsertableFilter).WithGraph(len(ref.counts), g)
		}()
		go func() {
			defer wg.Done()
			for _, q := range queries {
				base.Candidates(q, ftv.Subgraph)
				base.Candidates(q, ftv.Supergraph)
			}
		}()
	}
	wg.Wait()
	for i, g := range extra {
		requireSameAsRef(t, fmt.Sprintf("fork %d", i), forks[i], ref.with(len(ref.counts), g), queries)
	}
	requireSameAsRef(t, "base", base, ref, queries)
}
