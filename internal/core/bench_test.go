package core

import (
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// Hot-path microbenchmarks for the three Execute classes — exact hit,
// indexed miss, sub/super hit — with allocation reporting. These are the
// profiles behind the hot-path memory discipline (see doc.go): run with
//
//	go test -bench 'BenchmarkExecute' -benchmem ./internal/core/
//
// and compare allocs/op across changes. The companion alloc_test.go pins
// hard budgets so regressions fail in CI, not in a profile nobody reads.

// benchStreams bundles a warmed cache with pre-generated query streams
// whose members are pairwise non-isomorphic (distinct WL fingerprints), so
// cycling through a stream never turns a miss into an exact hit until the
// stream wraps.
type benchStreams struct {
	cache *Cache
	// exact is a query already staged in the cache: re-executing it takes
	// the exact-hit fast path.
	exact *graph.Graph
	// misses are distinct patterns extracted from distinct dataset graphs:
	// executing stream members in order exercises the full miss pipeline
	// (filter, hit detection, verification, admission).
	misses []*graph.Graph
	// subhits are distinct proper subgraphs of anchor, a large cached
	// pattern: each one misses exact match but collects a sub-case hit.
	subhits []*graph.Graph
}

func newBenchStreams(tb testing.TB, datasetSize, streamLen int) *benchStreams {
	tb.Helper()
	rng := rand.New(rand.NewSource(97))
	dataset := gen.Molecules(rng, datasetSize, gen.DefaultMoleculeConfig())
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Capacity = 256
	cfg.Window = 16
	c, err := New(method, cfg)
	if err != nil {
		tb.Fatal(err)
	}

	seen := map[graph.Fingerprint]bool{}
	distinct := func(g *graph.Graph) bool {
		fp := g.WLFingerprint(3)
		if seen[fp] {
			return false
		}
		seen[fp] = true
		return true
	}

	// The anchor: one large pattern, executed so it is cached (pending or
	// admitted — findExact consults both), whose subgraphs sub-hit it.
	anchor := gen.ExtractConnectedSubgraph(rng, dataset[0], 14)
	distinct(anchor)
	if _, err := c.Execute(anchor, ftv.Subgraph); err != nil {
		tb.Fatal(err)
	}

	bs := &benchStreams{cache: c, exact: anchor}
	for i := 1; len(bs.misses) < streamLen && i < 64*streamLen; i++ {
		src := dataset[i%len(dataset)]
		g := gen.ExtractConnectedSubgraph(rng, src, 4+rng.Intn(8))
		if distinct(g) {
			bs.misses = append(bs.misses, g)
		}
	}
	// A small anchor has a bounded space of distinct subgraphs, so this
	// stream is best-effort: stop after a fixed attempt budget and let
	// callers cycle whatever was found.
	for i := 0; len(bs.subhits) < streamLen && i < 64*streamLen; i++ {
		g := gen.ExtractConnectedSubgraph(rng, anchor, 3+rng.Intn(6))
		if distinct(g) {
			bs.subhits = append(bs.subhits, g)
		}
	}
	if len(bs.misses) == 0 || len(bs.subhits) == 0 {
		tb.Fatal("bench stream generation produced no distinct patterns")
	}
	return bs
}

func BenchmarkExecuteExactHit(b *testing.B) {
	bs := newBenchStreams(b, 200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bs.cache.Execute(bs.exact, ftv.Subgraph)
		if err != nil {
			b.Fatal(err)
		}
		if !res.ExactHit {
			b.Fatal("expected an exact hit")
		}
	}
}

// BenchmarkExecuteExactHitParallel runs the exact-hit stream from
// GOMAXPROCS goroutines at once: every query takes the dataset lock's
// read side, the owning shard's read lock and policyMu for the hit
// credit, so this prices what those shared locks cost under concurrent
// readers. Compare runs with -cpu 1,2,....
func BenchmarkExecuteExactHitParallel(b *testing.B) {
	bs := newBenchStreams(b, 200, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := bs.cache.Execute(bs.exact, ftv.Subgraph)
			if err != nil {
				b.Error(err)
				return
			}
			if !res.ExactHit {
				b.Error("expected an exact hit")
				return
			}
		}
	})
}

func BenchmarkExecuteIndexedMiss(b *testing.B) {
	bs := newBenchStreams(b, 200, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.cache.Execute(bs.misses[i%len(bs.misses)], ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteSubSuperHit(b *testing.B) {
	bs := newBenchStreams(b, 200, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.cache.Execute(bs.subhits[i%len(bs.subhits)], ftv.Subgraph); err != nil {
			b.Fatal(err)
		}
	}
}
