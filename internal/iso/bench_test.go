package iso

import (
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

// Representative verification workloads. On molecule datasets most
// Method-M tests run a connected pattern against a 20–50 vertex target,
// and a little over half of them succeed, so the benchmarks below time
// an embedding and a failing connected pattern on a 40-vertex molecule
// plus an embedding into a target too large for the word-mask path.

// benchPair is a deterministic (pattern, target) pair for one benchmark.
type benchPair struct{ p, t *graph.Graph }

// embeddingPair extracts a connected k-vertex pattern from an n-vertex
// molecule of the given kind, so the test succeeds.
func embeddingPair(seed int64, n, k int, directed, edgeLabels bool) benchPair {
	rng := rand.New(rand.NewSource(seed))
	tg := molecule(rng, n, directed, edgeLabels, false)
	return benchPair{extractConnected(rng, tg, k), tg}
}

// failingPair returns a connected k-vertex pattern extracted from another
// molecule that does not embed in an n-vertex target and whose search
// expands at least minRec nodes before failing.
func failingPair(seed int64, n, k int, minRec int64) benchPair {
	rng := rand.New(rand.NewSource(seed))
	for {
		tg := molecule(rng, n, false, false, false)
		p := extractConnected(rng, molecule(rng, n, false, false, false), k)
		if ok, st := VF2(p, tg, Options{}); !ok && st.Recursions >= minRec {
			return benchPair{p, tg}
		}
	}
}

func benchVF2(b *testing.B, c benchPair, want bool) {
	if ok, _ := VF2(c.p, c.t, Options{}); ok != want {
		b.Fatalf("VF2 = %v, want %v", ok, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VF2(c.p, c.t, Options{})
	}
}

func BenchmarkVF2MoleculeEmbedding(b *testing.B) {
	benchVF2(b, embeddingPair(11, 40, 12, false, false), true)
}

func BenchmarkVF2MoleculeNoEmbedding(b *testing.B) {
	benchVF2(b, failingPair(12, 40, 10, 8), false)
}

func BenchmarkVF2LargeTargetEmbedding(b *testing.B) {
	benchVF2(b, embeddingPair(13, 150, 12, false, false), true)
}

// TestVF2WarmAllocs pins the steady state of verification: once the
// pattern's plan and the target's summaries are memoized, a VF2 call
// allocates nothing, on both the word-mask path and the list path.
func TestVF2WarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is distorted under the race detector")
	}
	cases := map[string]benchPair{
		"embedding":     embeddingPair(11, 40, 12, false, false),
		"no-embedding":  failingPair(12, 40, 10, 8),
		"large-target":  embeddingPair(13, 150, 12, false, false),
		"budget-abort":  embeddingPair(14, 40, 16, false, false),
		"disconnected":  {randomGraph(rand.New(rand.NewSource(3)), 8, 8, 0.3), molecule(rand.New(rand.NewSource(4)), 40, false, false, false)},
		"directed":      embeddingPair(15, 40, 10, true, true),
		"directed-list": embeddingPair(16, 90, 10, true, true),
	}
	for name, c := range cases {
		opts := Options{}
		if name == "budget-abort" {
			opts.MaxRecursions = 3
		}
		VF2(c.p, c.t, opts) // warm the memos
		if a := testing.AllocsPerRun(100, func() { VF2(c.p, c.t, opts) }); a != 0 {
			t.Errorf("%s: %.1f allocs per warm VF2 call, want 0", name, a)
		}
	}
}
