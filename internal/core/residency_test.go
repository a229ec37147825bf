package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/bitset"
	"graphcache/internal/gen"
)

// shardWalk sums resident entries and bytes the slow way — walking every
// shard under its read lock — the view Len/Bytes used to compute before
// they switched to the atomic residency account.
func shardWalk(c *Cache) (entries, memBytes int) {
	for _, sh := range c.shards {
		sh.mu.RLock()
		entries += len(sh.entries)
		memBytes += sh.memBytes
		sh.mu.RUnlock()
	}
	return entries, memBytes
}

// internWalk recomputes the intern pool's byte account the slow way: the
// distinct canonical sets the resident entries hold references on, each
// counted once. The pool only retains sets with live references, so this
// walk must reproduce pool.bytes exactly.
func internWalk(c *Cache) int {
	seen := make(map[*bitset.Set]bool)
	b := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		for _, e := range sh.entries {
			if e.interned != nil && !seen[e.interned] {
				seen[e.interned] = true
				b += e.interned.Bytes()
			}
		}
		sh.mu.RUnlock()
	}
	return b
}

// TestResidencyAccountAgreement asserts that the atomic residency account
// (now backing Cache.Len and, with the intern pool's account, Cache.Bytes)
// and the per-shard structures agree after window turns, evictions, state
// save/restore cycles and live dataset mutations — with answer sets
// migrating containers (Compact at admission, clone-and-compact on
// removals) and interning across entries throughout.
func TestResidencyAccountAgreement(t *testing.T) {
	check := func(t *testing.T, c *Cache, when string) {
		t.Helper()
		entries, memBytes := shardWalk(c)
		if got := c.Len(); got != entries {
			t.Fatalf("%s: Len() %d, shard walk %d", when, got, entries)
		}
		if got := int(c.res.bytes.Load()); got != memBytes {
			t.Fatalf("%s: residency account %d bytes, shard walk %d", when, got, memBytes)
		}
		poolBytes := internWalk(c)
		if got := int(c.pool.bytes.Load()); got != poolBytes {
			t.Fatalf("%s: pool account %d bytes, distinct interned sets hold %d", when, got, poolBytes)
		}
		if got, want := c.Bytes(), memBytes+poolBytes; got != want {
			t.Fatalf("%s: Bytes() %d, shard walk + pool %d", when, got, want)
		}
	}
	for _, start := range churnStarts {
		t.Run("start="+start, func(t *testing.T) {
			dataset := testDataset(41, 24)
			extra := testDataset(42, 4)
			w, err := gen.NewWorkload(rand.New(rand.NewSource(43)), dataset, gen.WorkloadConfig{
				Size: 80, Mixed: true, PoolSize: 30,
				ZipfS: 1.2, ChainFrac: 0.6, ChainLen: 3, MinEdges: 3, MaxEdges: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			// A restored start holds the first half of the workload's admissions,
			// bodies unfaulted, before the whole workload runs.
			c := startCache(t, start, 41, 24, func(cfg *Config) {
				cfg.Capacity = 12 // small: forces turns and evictions
				cfg.Window = 4
				cfg.Shards = 4
				cfg.SelfCheck = false
			}, w.Queries[:len(w.Queries)/2])
			for i, q := range w.Queries {
				if _, err := c.Execute(q.G, q.Type); err != nil {
					t.Fatal(err)
				}
				if i%17 == 0 {
					check(t, c, fmt.Sprintf("after query %d", i))
				}
			}
			if c.Stats().Evictions == 0 || c.Stats().WindowTurns == 0 {
				t.Fatal("workload too tame: no evictions or turns")
			}
			check(t, c, "after workload")

			// Dataset mutations: additions grow answer sets (and the byte
			// accounts); removals clear bits.
			for i, g := range extra {
				if _, err := c.AddGraph(g); err != nil {
					t.Fatal(err)
				}
				check(t, c, fmt.Sprintf("after add %d", i))
			}
			if err := c.RemoveGraph(0); err != nil {
				t.Fatal(err)
			}
			check(t, c, "after remove")
			// RemoveGraph trues every entry up against the pool under the full
			// hierarchy, so the accounts must now equal the TRUE resident
			// footprint — static bytes per entry plus each distinct published
			// answer set once (summing Entry.Bytes would double-count sets
			// interning has collapsed).
			trueBytes := 0
			seen := make(map[*bitset.Set]bool)
			for _, e := range c.Entries() {
				a := e.Answers()
				trueBytes += e.Bytes() - a.Bytes()
				if !seen[a] {
					seen[a] = true
					trueBytes += a.Bytes()
				}
			}
			if got := c.Bytes(); got != trueBytes {
				t.Fatalf("after remove: Bytes() %d, true footprint %d", got, trueBytes)
			}
			// Touch every entry with an exact hit, then re-check the accounts.
			for _, e := range c.Entries() {
				if _, err := c.Execute(e.Graph, e.Type); err != nil {
					t.Fatal(err)
				}
			}
			check(t, c, "after exact hits")

			// Save/restore resets and rebuilds both views.
			var buf bytes.Buffer
			if err := c.WriteState(&buf); err != nil {
				t.Fatal(err)
			}
			if err := c.ReadState(&buf); err != nil {
				t.Fatal(err)
			}
			check(t, c, "after restore")
			if c.Len() == 0 {
				t.Fatal("restore left the cache empty")
			}
		})
	}
}
