package ftv_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// coldShaped is the cold benchmark workload's input at a given dataset
// size: gen.DefaultMoleculeConfig molecules and every query a distinct
// mixed sub/super pattern (no resubmission pool, no containment chains).
type coldShaped struct {
	dataset    []*graph.Graph
	sub, super []*graph.Graph
	more       []*graph.Graph // molecules to add
	filter     *ftv.GGSX
}

var (
	coldMu     sync.Mutex
	coldBySize = map[int]*coldShaped{}
)

func coldInput(tb testing.TB, size int) *coldShaped {
	tb.Helper()
	coldMu.Lock()
	defer coldMu.Unlock()
	if c, ok := coldBySize[size]; ok {
		return c
	}
	rng := rand.New(rand.NewSource(int64(size)))
	c := &coldShaped{dataset: gen.Molecules(rng, size, gen.DefaultMoleculeConfig())}
	wc := gen.DefaultWorkloadConfig()
	wc.Mixed, wc.ZipfS, wc.ChainFrac, wc.PoolSize, wc.Size = true, 0, 0, 1000, 0
	wl, err := gen.NewWorkload(rng, c.dataset, wc)
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range wl.Pool {
		if p.Type == ftv.Supergraph {
			c.super = append(c.super, p.G)
		} else {
			c.sub = append(c.sub, p.G)
		}
	}
	c.more = gen.Molecules(rng, 512, gen.DefaultMoleculeConfig())
	c.filter = ftv.NewGGSX(c.dataset, 4)
	coldBySize[size] = c
	return c
}

// BenchmarkGGSXCandidates filters cold-shaped queries over 10k molecules,
// one query per iteration, cycling through the subgraph or supergraph
// half of the pool.
func BenchmarkGGSXCandidates(b *testing.B) {
	c := coldInput(b, 10000)
	for _, d := range []struct {
		name string
		qt   ftv.QueryType
		qs   []*graph.Graph
	}{{"sub", ftv.Subgraph, c.sub}, {"super", ftv.Supergraph, c.super}} {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				c.filter.Candidates(d.qs[i%len(d.qs)], d.qt)
			}
		})
	}
}

// BenchmarkGGSXWithGraph times one incremental add at 2k and 10k indexed
// graphs. Each iteration appends the next molecule to a chain of
// versions; every 256 adds the chain restarts from the built index, so
// the dataset never outgrows its size by much and the copy a restart
// costs stays in the average. The two sizes should cost about the same.
func BenchmarkGGSXWithGraph(b *testing.B) {
	for _, size := range []int{2000, 10000} {
		c := coldInput(b, size)
		b.Run(fmt.Sprintf("%dk", size/1000), func(b *testing.B) {
			b.ReportAllocs()
			var f ftv.Filter = c.filter
			for i := 0; b.Loop(); i++ {
				k := i % 256
				if k == 0 {
					f = c.filter
				}
				f = f.(ftv.InsertableFilter).WithGraph(size+k, c.more[k])
			}
		})
	}
}

// TestGGSXCandidatesAllocs pins the allocation cost of a warm Candidates
// call: the pooled scratch absorbs the enumeration, the feature sort and
// the posting intersection, so only the returned set is allocated (the
// Set header plus its payload).
func TestGGSXCandidatesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	dataset := molecules(61, 300)
	x := ftv.NewGGSX(dataset, 4)
	rng := rand.New(rand.NewSource(62))
	sampler := gen.NewAIDSLabelSampler(8)
	sub := gen.ExtractConnectedSubgraph(rng, dataset[0], 6)
	super := gen.Augment(rng, dataset[1], 2, 1, sampler)
	for _, c := range []struct {
		name string
		q    *graph.Graph
		qt   ftv.QueryType
	}{{"sub", sub, ftv.Subgraph}, {"super", super, ftv.Supergraph}} {
		if x.Candidates(c.q, c.qt).Empty() {
			t.Fatalf("%s: the query should have candidates", c.name)
		}
		if a := testing.AllocsPerRun(100, func() { x.Candidates(c.q, c.qt) }); a != 2 {
			t.Errorf("%s: %.1f allocs per warm Candidates call, want 2", c.name, a)
		}
	}
}
