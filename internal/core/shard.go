package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"graphcache/internal/graph"
)

// DefaultShards is the shard count selected when Config.Shards is zero.
// Four shards balance the two forces the per-shard window engine trades
// off: more shards shrink lock contention, but they also shrink each
// shard's admission window and eviction victim pool, degrading
// replacement quality toward per-shard FIFO (a 50-entry cache split 16
// ways leaves the policy ~3 candidates to rank). Per-query critical
// sections are tiny — an append and a map-lookup copy — so four stripes
// comfortably serve the 8-worker benchmarks; raise Config.Shards on
// machines with more cores than that.
const DefaultShards = 4

// residency is the cache-wide resident-entry account: entry and byte
// counts maintained atomically by every shard insert/remove, so a turning
// shard can enforce the GLOBAL capacity and memory budget while holding
// only its own lock. Turns serialize on policyMu — the only context that
// admits or evicts — so the counts a turn reads are exact, not racy
// approximations. bytes covers the entries' static footprints only;
// answer-set bytes live in the intern pool's account, charged once per
// canonical set (Cache.Bytes sums the two).
type residency struct {
	entries atomic.Int64
	bytes   atomic.Int64
}

// shard is one lock-striped partition of the admitted entries. Entries are
// assigned to shards by graph fingerprint, so the exact-match fast path
// touches exactly one shard. Within a shard, entries is kept sorted by
// ascending ID (admission order) — the invariant that keeps candidate
// enumeration, the feature-index merge and replacement-policy input
// deterministic at any shard count.
//
// Each shard also owns its own admission window (the per-shard Window
// Manager): executed queries are staged in window under mu and admitted
// by turnShard when it fills. Capacity stays global — the resident
// account tells a turning shard how far over budget the whole cache is,
// and it evicts from its own residents to pay the excess down — so
// capacity flows to the shards that actually receive traffic instead of
// being split into fixed quotas.
type shard struct {
	// mu guards entries/byFP/memBytes/window. Innermost rung of the
	// hierarchy; every shard lock shares the rank, and lockAll's
	// index-ordered sweep is the only multi-shard acquisition.
	//gclint:lock shard
	mu       sync.RWMutex
	entries  []*Entry
	byFP     map[graph.Fingerprint][]*Entry
	memBytes int

	// res is the cache-wide resident account, shared by every shard.
	res *residency

	// pool is the cache-wide answer-set intern pool, shared by every
	// shard: insertLocked acquires a canonical set for each admitted
	// entry, removeLocked releases it. Its own leaf mutex synchronizes
	// cross-shard acquire/release under any shard lock.
	pool *internPool

	// window is this shard's pending-admission buffer. Guarded by mu;
	// staged in ascending-ID order because IDs are claimed under mu.
	window []*Entry

	// turns counts this shard's window turns (atomic: read by ShardStats
	// without the shard lock).
	turns atomic.Int64

	// summaries is this shard's published slice of the feature index:
	// an immutable, ID-ordered array of containment summaries for the
	// shard's admitted entries. Replaced (never mutated) under policyMu
	// plus this shard's write lock; read lock-free by mergeIndex, which
	// runs under policyMu — so a concurrent turn of ANOTHER shard can
	// fold this shard's latest summaries into the global index without
	// touching this shard's lock.
	//
	//gclint:snapshot summaries
	summaries atomic.Pointer[[]indexEntry]
}

func newShards(n int, res *residency, pool *internPool) []*shard {
	ss := make([]*shard, n)
	for i := range ss {
		ss[i] = &shard{byFP: make(map[graph.Fingerprint][]*Entry), res: res, pool: pool}
	}
	return ss
}

// shardFor maps a fingerprint to its owning shard.
func (c *Cache) shardFor(fp graph.Fingerprint) *shard {
	return c.shards[uint64(fp)%uint64(len(c.shards))]
}

// insertLocked admits e into the shard. Caller holds the shard write lock.
// Admissions arrive in ascending-ID order (IDs are claimed monotonically
// under the lock that stages the entry, and entries only ever move from a
// window into a shard), so appending preserves the sorted-by-ID invariant.
//
//gclint:requires shard
//gclint:acquires internMu
func (sh *shard) insertLocked(e *Entry) {
	sh.entries = append(sh.entries, e)
	sh.byFP[e.Fingerprint] = append(sh.byFP[e.Fingerprint], e)
	// Intern the answer set: an entry admitting a set another entry
	// already publishes collapses onto that canonical allocation.
	st := e.answers()
	if st.body == nil {
		canonical := sh.pool.acquire(st.set)
		if canonical != st.set {
			e.setAnswers(canonical)
		}
		e.interned = canonical
	}
	// A pending lazy body (state restore, persist.go) has nothing resident
	// to intern: e.interned stays nil (released as a no-op on eviction) and
	// the pool reference catches up at the first true-up after fault-in.
	// The entry's own charge is its static footprint; the shared answer
	// bytes are charged once by the pool.
	e.resBytes = e.staticBytes
	sh.memBytes += e.resBytes
	sh.res.entries.Add(1)
	sh.res.bytes.Add(int64(e.resBytes))
}

// containsLocked reports whether e is currently resident in the shard
// (located by binary search on the ID-sorted entries, confirmed by
// pointer identity). Caller holds the shard lock, read or write.
//
//gclint:requires shard
func (sh *shard) containsLocked(e *Entry) bool {
	i := sort.Search(len(sh.entries), func(i int) bool {
		return sh.entries[i].ID >= e.ID
	})
	return i < len(sh.entries) && sh.entries[i] == e
}

// removeLocked evicts e from the shard, preserving the order of the
// remaining entries. Caller holds the shard write lock. The entries slice
// is ID-sorted by invariant, so the victim is located with a binary search
// instead of a linear scan; a non-resident e (already evicted) is a no-op
// so the byte and residency accounts can never be decremented twice. The
// byFP list uses swap-delete: collision-list order only decides which of
// several isomorphic entries an exact hit returns.
//
//gclint:requires shard
//gclint:acquires internMu
func (sh *shard) removeLocked(e *Entry) {
	i := sort.Search(len(sh.entries), func(i int) bool {
		return sh.entries[i].ID >= e.ID
	})
	if i >= len(sh.entries) || sh.entries[i] != e {
		return
	}
	copy(sh.entries[i:], sh.entries[i+1:])
	sh.entries[len(sh.entries)-1] = nil
	sh.entries = sh.entries[:len(sh.entries)-1]
	list := sh.byFP[e.Fingerprint]
	for i, x := range list {
		if x == e {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if len(list) == 0 {
		delete(sh.byFP, e.Fingerprint)
	} else {
		sh.byFP[e.Fingerprint] = list
	}
	sh.memBytes -= e.resBytes
	sh.res.entries.Add(-1)
	sh.res.bytes.Add(int64(-e.resBytes))
	// Drop this entry's reference to its canonical answer set; the pool
	// account sheds the set's bytes with the last sharer.
	sh.pool.release(e.interned)
	e.interned = nil
}

// lockAll / unlockAll acquire every shard write lock in index order. Only
// the stop-the-world paths use them — dataset mutations and state
// save/restore; the lock hierarchy is dsMu → policyMu → shard locks, and
// reverse nestings never occur, so the fixed acquisition order is
// deadlock-free.
//
//gclint:holds shard
func (c *Cache) lockAll() {
	for _, sh := range c.shards {
		sh.mu.Lock()
	}
}

//gclint:releases shard
func (c *Cache) unlockAll() {
	for i := len(c.shards) - 1; i >= 0; i-- {
		c.shards[i].mu.Unlock()
	}
}

// gatherLocked returns all admitted entries across shards sorted by
// ascending ID — exactly the entries slice a single-shard cache would
// hold. Caller holds every shard lock (read or write).
//
//gclint:requires shard
func (c *Cache) gatherLocked() []*Entry {
	total := 0
	for _, sh := range c.shards {
		total += len(sh.entries)
	}
	all := make([]*Entry, 0, total)
	for _, sh := range c.shards {
		all = append(all, sh.entries...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// entriesSnapshot gathers a point-in-time, ID-ordered copy of the admitted
// entries, taking each shard read lock in turn. Entries evicted after the
// snapshot remain safe to read: their graphs and answer sets are immutable
// and still correct with respect to the immutable dataset.
//
// An empty cache returns nil without allocating or sorting, and a snapshot
// that drained from a single shard (or a single-shard cache) skips the
// sort — each shard is already ID-sorted. Indexed hit detection bypasses
// this entirely (it reads the published feature index); the remaining
// callers are Entries() and the IndexOff baseline scan.
//
//gclint:acquires shard
func (c *Cache) entriesSnapshot() []*Entry {
	var all []*Entry
	populated := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		if len(sh.entries) > 0 {
			populated++
			all = append(all, sh.entries...)
		}
		sh.mu.RUnlock()
	}
	if populated > 1 {
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	}
	return all
}
