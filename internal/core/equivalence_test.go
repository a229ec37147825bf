package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// equivalenceWorkload is the mixed, chain-heavy stream the equivalence
// tests share: small enough to run a full matrix, skewed enough to
// exercise exact, sub and super hits, window turns and evictions.
func equivalenceWorkload(t *testing.T) *gen.Workload {
	t.Helper()
	w, err := gen.NewWorkload(rand.New(rand.NewSource(52)), testDataset(51, 40), gen.WorkloadConfig{
		Size: 150, Mixed: true, PoolSize: 30,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// equivalenceCache builds a small cache (plenty of window turns and
// evictions) over a fresh GGSX method on the shared dataset.
func equivalenceCache(t *testing.T, policy string, shards int, indexOff bool) *Cache {
	t.Helper()
	p, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Capacity = 20
	cfg.Window = 5
	cfg.Policy = p
	cfg.Shards = shards
	cfg.IndexOff = indexOff
	return MustNew(ftv.NewGGSXMethod(testDataset(51, 40), 3), cfg)
}

// The sharding equivalence property: driven sequentially over the same
// workload, a sharded cache must return answer sets byte-identical to a
// single-shard cache's — the serialized baseline, which runs one query at
// a time through Shards: 1 and so computes exactly what a sequential
// Shards: 1 stream does. Per-shard windows stage and turn at different
// moments at different shard counts, so hit classifications and cache
// contents legitimately differ, but a graph's fingerprint pins it to one
// shard and hits only ever shrink verification work, never change
// answers. This is what licenses the lock striping: the shards are an
// implementation detail of the kernel, never visible in its answers.
//
// Policies here are restricted to timing-independent ones (PIN, LRU,
// FIFO, POP): PINC/HD rank victims by measured verification nanoseconds,
// which legitimately differ between two physical runs even of the very
// same engine.
func TestShardedEquivalentToSerialized(t *testing.T) {
	w := equivalenceWorkload(t)
	run := func(policy string, indexOff bool) {
		ref := equivalenceCache(t, policy, 1, indexOff)
		want := make([]string, len(w.Queries))
		for i, q := range w.Queries {
			res, err := ref.Execute(q.G, q.Type)
			if err != nil {
				t.Fatalf("reference query %d: %v", i, err)
			}
			want[i] = res.Answers.String()
		}
		if s := ref.Stats(); s.Evictions == 0 || s.ExactHits == 0 || s.SubHits+s.SuperHits == 0 {
			t.Fatalf("workload too tame for %s: %+v", policy, s)
		}
		for _, shards := range []int{2, 8, 32} {
			name := fmt.Sprintf("%s/shards=%d", policy, shards)
			if indexOff {
				name += "/indexOff"
			}
			t.Run(name, func(t *testing.T) {
				sharded := equivalenceCache(t, policy, shards, indexOff)
				for i, q := range w.Queries {
					res, err := sharded.Execute(q.G, q.Type)
					if err != nil {
						t.Fatalf("sharded query %d: %v", i, err)
					}
					if got := res.Answers.String(); got != want[i] {
						t.Fatalf("query %d: %d shards answer %s, 1 shard %s", i, shards, got, want[i])
					}
				}
			})
		}
	}
	for _, policy := range []string{"pin", "lru", "fifo", "pop"} {
		run(policy, false)
	}
	// The IndexOff baseline scan must be just as shard-count-independent.
	run("pin", true)
}

// The index equivalence property: with the feature index on, every answer
// set must be byte-identical to the IndexOff baseline's at the same shard
// count — the index may only ever discard provable non-hits, so the two
// can classify hits differently within the VF2 attempt budget (and hence
// age different cache contents), but both always return the exact answer
// set. The index must also do strictly LESS hit-detection work: fewer
// dominance merges, no more q↔h iso tests, and a non-zero index-pruned
// count. Comparing at the same shard count keeps the per-shard admission
// schedule identical on both sides, so the work accounting compares like
// with like.
func TestIndexedEquivalentToUnindexed(t *testing.T) {
	w := equivalenceWorkload(t)
	for _, shards := range []int{1, 2, 8, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// PIN is timing-independent: runs are reproducible.
			baseline := equivalenceCache(t, "pin", shards, true)
			indexed := equivalenceCache(t, "pin", shards, false)
			for i, q := range w.Queries {
				rb, err := baseline.Execute(q.G, q.Type)
				if err != nil {
					t.Fatalf("baseline query %d: %v", i, err)
				}
				ri, err := indexed.Execute(q.G, q.Type)
				if err != nil {
					t.Fatalf("indexed query %d: %v", i, err)
				}
				if got, want := ri.Answers.String(), rb.Answers.String(); got != want {
					t.Fatalf("query %d: indexed answers %s, baseline %s", i, got, want)
				}
			}
			bs, is := baseline.Stats(), indexed.Stats()
			if is.HitIndexPruned == 0 {
				t.Error("index pruned nothing: summaries never fired")
			}
			if is.HitFullChecks >= bs.HitFullChecks {
				t.Errorf("index did not reduce dominance merges: %d (indexed) vs %d (baseline)",
					is.HitFullChecks, bs.HitFullChecks)
			}
			if is.HitDetectionTests > bs.HitDetectionTests {
				t.Errorf("index increased cache-side iso tests: %d (indexed) vs %d (baseline)",
					is.HitDetectionTests, bs.HitDetectionTests)
			}
		})
	}
}

// The per-shard window accounting property: however many shards split
// the admission window, the per-shard Window Managers must add up to one
// window of size W. Every turn is a per-shard turn (the shards' Turns sum
// to the aggregate WindowTurns), and the resident count honors
// Config.Capacity — exactly at one shard, and within the documented
// transient overshoot of fewer than Shards×⌈Window/Shards⌉ entries at any
// other count.
func TestPerShardWindowEquivalence(t *testing.T) {
	w := equivalenceWorkload(t)
	for _, shards := range []int{1, 2, 8, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := equivalenceCache(t, "pin", shards, false)
			slack := 0
			if shards > 1 {
				slack = shards*c.shardWindow - 1
			}
			for i, q := range w.Queries {
				if _, err := c.Execute(q.G, q.Type); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				if c.Len() > c.cfg.Capacity+slack {
					t.Fatalf("query %d: %d resident entries, capacity %d + slack %d",
						i, c.Len(), c.cfg.Capacity, slack)
				}
			}
			turns := int64(0)
			for _, st := range c.ShardStats() {
				turns += st.Turns
			}
			if turns == 0 {
				t.Error("no per-shard window turns fired: workload too tame")
			}
			if got := c.Stats().WindowTurns; got != turns {
				t.Errorf("aggregate WindowTurns %d != sum of per-shard turns %d", got, turns)
			}
		})
	}
}

// TestDeterministicAtFixedShardCount pins the determinism the per-shard
// engine DOES promise: two sequential runs of the same stream at the same
// shard count are indistinguishable — answers, hit classifications, cache
// contents and counters.
func TestDeterministicAtFixedShardCount(t *testing.T) {
	dataset := testDataset(51, 40)
	w, err := gen.NewWorkload(rand.New(rand.NewSource(53)), dataset, gen.WorkloadConfig{
		Size: 120, Mixed: true, PoolSize: 25,
		ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	method := ftv.NewGGSXMethod(dataset, 3)
	build := func() *Cache {
		p, err := NewPolicy("pin")
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Capacity = 20
		cfg.Window = 6
		cfg.Policy = p
		cfg.Shards = 8
		return MustNew(method, cfg)
	}
	a, b := build(), build()
	for i, q := range w.Queries {
		ra, err := a.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("run A query %d: %v", i, err)
		}
		rb, err := b.Execute(q.G, q.Type)
		if err != nil {
			t.Fatalf("run B query %d: %v", i, err)
		}
		if !ra.Answers.Equal(rb.Answers) || ra.ExactHit != rb.ExactHit || len(ra.Hits) != len(rb.Hits) {
			t.Fatalf("query %d: runs diverge", i)
		}
	}
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != len(eb) {
		t.Fatalf("resident entries diverge: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].ID != eb[i].ID || !ea[i].Answers().Equal(eb[i].Answers()) {
			t.Fatalf("entry %d diverges between runs", i)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	sa.FilterTime, sa.HitTime, sa.VerifyTime = 0, 0, 0
	sb.FilterTime, sb.HitTime, sb.VerifyTime = 0, 0, 0
	if sa != sb {
		t.Fatalf("monitor counters diverge:\nA %+v\nB %+v", sa, sb)
	}
}
