package core

import (
	"sync"
	"sync/atomic"

	"graphcache/internal/bitset"
)

// Cross-entry answer-set interning. Cached answer sets repeat: queries
// over the same hot region converge on identical answer sets, dataset
// removals collapse near-identical sets onto each other, and a restore
// rebuilds many entries from one dataset. Because published answer sets
// are immutable (the COW publication rule — maintenance swaps whole
// sets, never edits one), identical sets can safely share one
// allocation. The internPool is the cache-wide registry that makes the
// sharing happen: entries acquire a refcounted canonical set keyed by
// content fingerprint, and the residency accounting charges each
// canonical set once, no matter how many entries publish it.
//
// Lifecycle: a set is acquired when its entry is admitted
// (shard.insertLocked) and whenever a maintenance pass notices the entry
// published a new set (rechargeLocked, the true-up point); it is released
// when the entry is evicted (shard.removeLocked) or trued up onto a
// different set. A lazily restored body faulting in on the query path
// bypasses the pool (fault-in takes no locks), so the decoded set rides
// uninterned until the next window turn or stop-the-world pass.

// internPool is a fingerprint-keyed, refcounted pool of canonical answer
// sets. Buckets resolve fingerprint collisions by content equality.
type internPool struct {
	// mu guards m and the node refcounts. A leaf: acquire/release run
	// under arbitrary shard locks, and nothing is acquired inside the
	// critical section (bucket scans call only pure bitset reads).
	//gclint:lock internMu
	//gclint:leaf
	mu sync.Mutex
	m  map[uint64][]*internNode

	// bytes is the total footprint of the pooled canonical sets, each
	// charged exactly once. Atomic so Cache.Bytes and the memory-budget
	// loops read it without the pool lock.
	bytes atomic.Int64
	// hits counts acquires that landed on an already-pooled set (the
	// sharing the pool exists for); misses counts acquires that inserted
	// a new canonical set.
	hits   atomic.Int64
	misses atomic.Int64
}

// internNode is one canonical set and the number of entries publishing it.
type internNode struct {
	set  *bitset.Set
	refs int
}

func newInternPool() *internPool {
	return &internPool{m: make(map[uint64][]*internNode)}
}

// acquire interns set: if an equal set is already pooled, its refcount
// grows and the pooled canonical is returned (the caller should publish
// that one and let set become garbage); otherwise set itself becomes a
// canonical with one reference. The caller must treat set as immutable
// from this point — it may already be, or now become, shared.
//
//gclint:acquires internMu
func (p *internPool) acquire(set *bitset.Set) *bitset.Set {
	fp := set.Fingerprint()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, nd := range p.m[fp] {
		if nd.set == set || nd.set.Equal(set) {
			nd.refs++
			p.hits.Add(1)
			return nd.set
		}
	}
	p.m[fp] = append(p.m[fp], &internNode{set: set, refs: 1})
	p.misses.Add(1)
	p.bytes.Add(int64(set.Bytes()))
	return set
}

// release drops one reference to a canonical set previously returned by
// acquire, removing it from the pool (and its bytes from the account)
// when the last reference goes. A nil set and an unknown pointer are
// no-ops, so release can never unbalance the account.
//
//gclint:acquires internMu
func (p *internPool) release(set *bitset.Set) {
	if set == nil {
		return
	}
	fp := set.Fingerprint()
	p.mu.Lock()
	defer p.mu.Unlock()
	bucket := p.m[fp]
	for i, nd := range bucket {
		if nd.set != set {
			continue // a fingerprint twin, not our canonical
		}
		nd.refs--
		if nd.refs > 0 {
			return
		}
		bucket[i] = bucket[len(bucket)-1]
		bucket[len(bucket)-1] = nil
		if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
			delete(p.m, fp)
		} else {
			p.m[fp] = bucket
		}
		p.bytes.Add(int64(-set.Bytes()))
		return
	}
}

// reset empties the pool — the state-restore path, which clears every
// shard wholesale and re-interns the restored entries from scratch. The
// hit/miss counters survive (they are lifetime telemetry, like the
// Monitor's).
//
//gclint:acquires internMu
func (p *internPool) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m = make(map[uint64][]*internNode)
	p.bytes.Store(0)
}

// distinctSets returns the number of pooled canonical sets (for tests
// and stats).
//
//gclint:acquires internMu
func (p *internPool) distinctSets() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, bucket := range p.m {
		n += len(bucket)
	}
	return n
}
