package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// churnStream drives a mixed query/mutation stream through the cache with
// SelfCheck armed (every answer is cross-checked byte-identical against
// the uncached method), mutating the dataset every `every` queries:
// alternating additions (fresh molecules from the same generator family,
// so they land in cached answer sets) and removals (a pseudo-random live
// gid). It returns the number of mutations applied.
func churnStream(t *testing.T, c *Cache, queries []gen.Query, extra []*graph.Graph, every int, afterMutation func(i int)) int {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mutations := 0
	nextExtra := 0
	for i, q := range queries {
		if _, err := c.Execute(q.G, q.Type); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if (i+1)%every != 0 {
			continue
		}
		if mutations%2 == 0 && nextExtra < len(extra) {
			if _, err := c.AddGraph(extra[nextExtra]); err != nil {
				t.Fatalf("add after query %d: %v", i, err)
			}
			nextExtra++
		} else {
			// Remove a pseudo-random live graph.
			info := c.DatasetInfo()
			if info.Live <= 1 {
				continue
			}
			view := c.Method().View()
			gid := rng.Intn(info.Size)
			for view.Graph(gid) == nil {
				gid = (gid + 1) % info.Size
			}
			if err := c.RemoveGraph(gid); err != nil {
				t.Fatalf("remove %d after query %d: %v", gid, i, err)
			}
		}
		mutations++
		if afterMutation != nil {
			afterMutation(i)
		}
	}
	return mutations
}

// answerCapacityErr checks the maintenance invariant every mutation must
// leave behind: each admitted and window entry's answer set spans the
// whole dataset id space. A pending lazy-restore body is checked by its
// recorded capacity, so the check never faults one in. Callers must not
// race it with mutations.
func answerCapacityErr(c *Cache) error {
	size := c.DatasetInfo().Size
	for _, sh := range c.shards {
		sh.mu.RLock()
		entries := append(append([]*Entry(nil), sh.entries...), sh.window...)
		sh.mu.RUnlock()
		for _, e := range entries {
			n := 0
			if st := e.answers(); st.body != nil {
				n = st.body.cap
			} else {
				n = st.set.Len()
			}
			if n != size {
				return fmt.Errorf("entry %d: answer capacity %d, dataset id space %d", e.ID, n, size)
			}
		}
	}
	return nil
}

// TestChurnEquivalence is the churn acceptance property: a mixed
// add/remove/query stream yields answers byte-identical to the uncached
// Method.Run after every mutation — SelfCheck cross-checks every executed
// query, and after each mutation every admitted entry's answer set is
// asserted equal to a fresh uncached run of its pattern. Exercised at
// shards {1, 4, 32}; `go test -race` arms the race detector over the
// same paths.
func TestChurnEquivalence(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dataset := testDataset(51, 30)
			extra := testDataset(77, 8)
			w, err := gen.NewWorkload(rand.New(rand.NewSource(52)), dataset, gen.WorkloadConfig{
				Size: 90, Mixed: true, PoolSize: 24,
				ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := testCache(t, dataset, func(cfg *Config) {
				cfg.Capacity = 16
				cfg.Window = 4
				cfg.Shards = shards
			})
			method := c.Method()

			mutations := churnStream(t, c, w.Queries, extra, 9, func(i int) {
				// Every admitted and window entry spans the mutated id
				// space, and every admitted entry is byte-exact against
				// the mutated dataset the moment the mutation returns.
				if err := answerCapacityErr(c); err != nil {
					t.Fatalf("after mutation at query %d: %v", i, err)
				}
				for _, e := range c.Entries() {
					want := method.Run(e.Graph, e.Type).Answers
					if !e.Answers().Equal(want) {
						t.Fatalf("after mutation at query %d: entry %d answers %v, uncached %v",
							i, e.ID, e.Answers(), want)
					}
				}
			})
			if mutations < 6 {
				t.Fatalf("stream too tame: only %d mutations", mutations)
			}
			info := c.DatasetInfo()
			if info.Epoch != int64(mutations) {
				t.Fatalf("epoch %d after %d mutations", info.Epoch, mutations)
			}

			// Re-execute every admitted entry's pattern: exact hits must
			// re-verify byte-identical (SelfCheck panics on any mismatch).
			for _, e := range c.Entries() {
				res, err := c.Execute(e.Graph, e.Type)
				if err != nil {
					t.Fatal(err)
				}
				want := method.Run(e.Graph, e.Type).Answers
				if !res.Answers.Equal(want) {
					t.Fatalf("entry %d: answers diverge after churn", e.ID)
				}
			}
			// Every addition maintained the GGSX filter incrementally:
			// the factory rebuild path never ran.
			snap := c.Stats()
			if snap.FilterRebuilds != 0 {
				t.Errorf("%d full filter rebuilds during churn, want 0", snap.FilterRebuilds)
			}
			if snap.FilterInserts != snap.DatasetAdds {
				t.Errorf("filter inserts %d, want one per addition (%d)", snap.FilterInserts, snap.DatasetAdds)
			}
		})
	}
}

// TestChurnDeterministic pins that a sequential churn stream is
// deterministic at a fixed shard count: two runs produce identical
// answers, identical cache contents and identical dataset shapes.
func TestChurnDeterministic(t *testing.T) {
	run := func() (*Cache, []string) {
		dataset := testDataset(51, 30)
		extra := testDataset(77, 6)
		w, err := gen.NewWorkload(rand.New(rand.NewSource(53)), dataset, gen.WorkloadConfig{
			Size: 70, Mixed: true, PoolSize: 20,
			ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPolicy("pin") // timing-independent
		if err != nil {
			t.Fatal(err)
		}
		method := ftv.NewGGSXMethod(dataset, 3)
		cfg := DefaultConfig()
		cfg.Capacity = 16
		cfg.Window = 4
		cfg.Shards = 4
		cfg.Policy = p
		c := MustNew(method, cfg)
		var answers []string
		rng := rand.New(rand.NewSource(99))
		nextExtra := 0
		for i, q := range w.Queries {
			res, err := c.Execute(q.G, q.Type)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, res.Answers.String())
			if (i+1)%8 != 0 {
				continue
			}
			if i%16 == 7 && nextExtra < len(extra) {
				if _, err := c.AddGraph(extra[nextExtra]); err != nil {
					t.Fatal(err)
				}
				nextExtra++
			} else {
				info := c.DatasetInfo()
				view := c.Method().View()
				gid := rng.Intn(info.Size)
				for view.Graph(gid) == nil {
					gid = (gid + 1) % info.Size
				}
				if err := c.RemoveGraph(gid); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c, answers
	}
	a, ansA := run()
	b, ansB := run()
	for i := range ansA {
		if ansA[i] != ansB[i] {
			t.Fatalf("query %d: answers diverge between identical churn runs", i)
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
}

// churnStarts names the two states the mutation tests start a cache in:
// "cold" (empty), or "restored" lazily from the snapshot of a warmed twin,
// so mutations race (or precede) the fault-in of restored answer bodies.
var churnStarts = []string{"cold", "restored"}

// startCache builds a cache over a fresh testDataset(seed, count) in the
// named start state. For "restored" a twin cache over an identical dataset
// first executes warm, and the new cache restores its snapshot lazily; the
// backing file stays open until the test ends.
func startCache(t *testing.T, start string, seed int64, count int, configure func(*Config), warm []gen.Query) *Cache {
	t.Helper()
	c := testCache(t, testDataset(seed, count), configure)
	if start == "cold" {
		return c
	}
	twin := testCache(t, testDataset(seed, count), configure)
	for _, q := range warm {
		if _, err := twin.Execute(q.G, q.Type); err != nil {
			t.Fatal(err)
		}
	}
	closer, err := c.RestoreStateLazy(v3StateFile(t, twin))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() })
	if c.Len() == 0 {
		t.Fatal("restore admitted nothing")
	}
	return c
}

// TestConcurrentChurn is the -race gauntlet for live mutations: worker
// goroutines stream queries (each cross-checked by SelfCheck against the
// dataset snapshot it ran under) while a mutator goroutine interleaves
// additions and removals. From a restored start, queries fault pending
// bodies in lock-free while window turns re-intern them under shard
// locks and the mutator's first addition faults in whatever is left.
func TestConcurrentChurn(t *testing.T) {
	for _, start := range churnStarts {
		t.Run("start="+start, func(t *testing.T) {
			queries := concurrentChurnQueries(t, testDataset(61, 24))
			c := startCache(t, start, 61, 24, concurrentChurnConfig, queries)
			concurrentChurn(t, c, queries)
			if start == "restored" && c.Stats().StateBodyFaults == 0 {
				t.Fatal("no restored body faulted in")
			}
		})
	}
}

func concurrentChurnConfig(cfg *Config) {
	cfg.Capacity = 12
	cfg.Window = 3
	cfg.Shards = 4
}

func concurrentChurnQueries(t *testing.T, dataset []*graph.Graph) []gen.Query {
	t.Helper()
	w, err := gen.NewWorkload(rand.New(rand.NewSource(62)), dataset, gen.WorkloadConfig{
		Size: 40, Mixed: true, PoolSize: 16,
		ZipfS: 1.2, ChainFrac: 0.5, ChainLen: 3, MinEdges: 3, MaxEdges: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w.Queries
}

// concurrentChurn streams queries from several workers while a mutator
// alternates additions and removals, then revalidates every admitted
// entry against the uncached method.
func concurrentChurn(t *testing.T, c *Cache, queries []gen.Query) {
	t.Helper()
	extra := testDataset(88, 10)
	const workers = 4
	var wg sync.WaitGroup
	for wkr := 0; wkr < workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i, q := range queries {
				if _, err := c.Execute(q.G, q.Type); err != nil {
					t.Errorf("worker %d query %d: %v", wkr, i, err)
					return
				}
			}
		}(wkr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(63))
		for m := 0; m < 12; m++ {
			if m%2 == 0 {
				if _, err := c.AddGraph(extra[m/2]); err != nil {
					t.Errorf("concurrent add %d: %v", m, err)
					return
				}
				continue
			}
			info := c.DatasetInfo()
			view := c.Method().View()
			gid := rng.Intn(info.Size)
			for view.Graph(gid) == nil {
				gid = (gid + 1) % info.Size
			}
			if err := c.RemoveGraph(gid); err != nil {
				t.Errorf("concurrent remove %d: %v", gid, err)
				return
			}
		}
	}()
	wg.Wait()

	// Post-churn: every answer set spans the id space and every admitted
	// entry revalidates byte-identical.
	if err := answerCapacityErr(c); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries() {
		res, err := c.Execute(e.Graph, e.Type)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.Method().Run(e.Graph, e.Type).Answers; !res.Answers.Equal(want) {
			t.Fatalf("entry %d: answers diverge after concurrent churn", e.ID)
		}
	}
}

// TestRemoveGraphClearsAnswerBits pins the stop-the-world removal rule:
// the tombstoned gid's bit disappears from every cached answer set the
// moment RemoveGraph returns, and an exact hit on the affected entry
// serves the patched answers.
func TestRemoveGraphClearsAnswerBits(t *testing.T) {
	dataset := testDataset(71, 12)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1 // admit immediately
		cfg.Shards = 1
	})
	// A pattern extracted from graph 0 is guaranteed to answer with 0.
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(3)), dataset[0], 4)
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answers.Contains(0) {
		t.Fatal("pattern of graph 0 should answer with graph 0")
	}
	if err := c.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries() {
		if e.Answers().Contains(0) {
			t.Fatalf("entry %d still answers with removed graph 0", e.ID)
		}
	}
	res2, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ExactHit {
		t.Fatal("expected an exact hit on the patched entry")
	}
	if res2.Answers.Contains(0) {
		t.Fatal("exact hit served a tombstoned answer")
	}
	// Double removal and out-of-range ids are rejected.
	if err := c.RemoveGraph(0); err == nil {
		t.Error("double removal should error")
	}
	if err := c.RemoveGraph(len(dataset) + 5); err == nil {
		t.Error("out-of-range removal should error")
	}
}

// TestAddGraphExtendsAnswers pins the addition rule: the moment AddGraph
// returns, a cached entry whose pattern is contained in the new graph
// answers with the new gid, and per-query bitsets grow with the dataset.
// From a restored start the entry's body is still unfaulted when the
// addition lands.
func TestAddGraphExtendsAnswers(t *testing.T) {
	for _, start := range churnStarts {
		t.Run("start="+start, func(t *testing.T) {
			dataset := testDataset(81, 10)
			q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(4)), dataset[2], 4)
			c := startCache(t, start, 81, 10, func(cfg *Config) {
				cfg.Window = 1
				cfg.Shards = 1
			}, []gen.Query{{G: q, Type: ftv.Subgraph}})
			if start == "cold" {
				if _, err := c.Execute(q, ftv.Subgraph); err != nil {
					t.Fatal(err)
				}
			}
			// Re-adding a copy of graph 2 guarantees the pattern embeds in
			// the new graph too.
			gid, err := c.AddGraph(dataset[2])
			if err != nil {
				t.Fatal(err)
			}
			if gid != len(dataset) {
				t.Fatalf("new gid %d, want %d", gid, len(dataset))
			}
			if err := answerCapacityErr(c); err != nil {
				t.Fatal(err)
			}
			fp, found := q.WLFingerprint(3), false
			for _, e := range c.Entries() {
				if e.Type == ftv.Subgraph && e.Fingerprint == fp {
					found = true
					if !e.Answers().Contains(gid) {
						t.Fatal("entry not extended at mutation time")
					}
				}
			}
			if !found {
				t.Fatal("query's entry not cached")
			}
			res, err := c.Execute(q, ftv.Subgraph)
			if err != nil {
				t.Fatal(err)
			}
			if !res.ExactHit {
				t.Fatal("expected an exact hit")
			}
			if res.Answers.Len() != len(dataset)+1 {
				t.Fatalf("answer bitset capacity %d, want %d", res.Answers.Len(), len(dataset)+1)
			}
			if !res.Answers.Contains(gid) {
				t.Fatal("added graph missing from the entry's answers")
			}
		})
	}
}

// TestAddGraphStaticMethod pins that a method without a filter factory
// rejects additions (but still supports removals).
func TestAddGraphStaticMethod(t *testing.T) {
	dataset := testDataset(91, 6)
	method := ftv.NewMethod("label/vf2", dataset, ftv.NewLabelFilter(dataset), nil)
	c := MustNew(method, DefaultConfig())
	if _, err := c.AddGraph(dataset[0]); err == nil {
		t.Error("static method should reject AddGraph")
	}
	if err := c.RemoveGraph(0); err != nil {
		t.Errorf("static method should support RemoveGraph: %v", err)
	}
	if got := c.DatasetInfo().Live; got != len(dataset)-1 {
		t.Errorf("live count %d after removal, want %d", got, len(dataset)-1)
	}
}
