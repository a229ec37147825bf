package core

import (
	"sync/atomic"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Live dataset mutations with exact cache maintenance.
//
// The cache's correctness argument rests on answer sets being exact over
// the dataset; when the dataset itself changes, the cached answer sets are
// materialized views that must be maintained. The rules:
//
//   - Queries and mutations serialize through dsMu: every query holds the
//     read side for its whole run (one dataset snapshot per query, shared
//     freely between queries); AddGraph/RemoveGraph hold the write side,
//     so mutations see a quiescent cache and queries never see a
//     half-maintained one.
//
//   - REMOVALS are stop-the-world and cheap: under the full lock
//     hierarchy the tombstoned gid's bit is cleared from every admitted
//     and window entry's answer set (a clone-and-clear pointer swap per
//     affected entry — no iso tests), and the method masks the gid out of
//     every future candidate set. Ids are never reused.
//
//   - ADDITIONS are stop-the-world too: under the full hierarchy the new
//     graph is verified against every admitted and window entry — one
//     containment test per entry — before any query runs again. Staleness
//     needs no bookkeeping: ids are appended and never reused, so the
//     graphs a set of capacity n lacks are exactly the live ids in
//     [n, Size()).
//
// The query path therefore never changes an answer set; the only state
// it publishes is a lazily restored body faulting in (persist.go). Every
// answer set returned by Execute is exact for the query's dataset
// snapshot — the SelfCheck oracle and the churn equivalence suite assert
// byte-identical answers to the uncached method after every mutation.

// AddGraph appends g to the live dataset under a fresh stable id and
// maintains the cached state exactly: the verification-cost EMA array and
// all future per-query bitsets grow with the dataset, and every cached
// answer set is extended to the new id before AddGraph returns. It
// returns the new graph's id. The method must support AddGraph
// (ftv.NewDynamicMethod or a bundled constructor).
//
// Lazily restored bodies still pending in the snapshot file are faulted
// in first, before the dataset changes: a body that fails verification
// panics like a query-path fault does, leaving the dataset and every
// answer set as they were.
//
//gclint:acquires dsMu policyMu shard
func (c *Cache) AddGraph(g *graph.Graph) (int, error) {
	c.dsMu.Lock()
	defer c.dsMu.Unlock()
	c.withAllEntriesLocked(func(_ *shard, e *Entry) { e.loadAnswers() })
	gid, err := c.method.AddGraph(g)
	if err != nil {
		return 0, err
	}
	view := c.method.View()

	// Grow the per-graph cost-EMA array. Cells are copied value-by-value
	// (atomic.Uint64 must not be moved with copy/append); in-flight CAS
	// updates cannot race this — every reader and writer of costVal runs
	// under the read side of dsMu.
	grown := make([]atomic.Uint64, view.Size())
	for i := range c.costVal {
		grown[i].Store(c.costVal[i].Load())
	}
	c.costVal = grown
	c.mon.datasetAdds.Add(1)

	// Verify the new graph against every admitted and window entry now,
	// under the full hierarchy (no queries are in flight — dsMu is held
	// exclusively — so the swaps are unobservable).
	c.withAllEntriesLocked(func(sh *shard, e *Entry) {
		c.reconcileEntryLocked(sh, e, view)
	})
	return gid, nil
}

// RemoveGraph tombstones dataset graph gid and clears its bit from every
// admitted and window entry's answer set — the stop-the-world maintenance
// path (no iso tests; a pointer swap per affected entry). The id is never
// reused, so all other answer-set positions stay valid as-is.
//
//gclint:acquires dsMu policyMu shard
func (c *Cache) RemoveGraph(gid int) error {
	c.dsMu.Lock()
	defer c.dsMu.Unlock()
	if err := c.method.RemoveGraph(gid); err != nil {
		return err
	}
	c.mon.datasetRemoves.Add(1)
	c.withAllEntriesLocked(func(sh *shard, e *Entry) {
		st := e.answers()
		if st.body != nil {
			// Lazily restored entry whose bits still live in the snapshot
			// file: record the tombstone in the fault-in drop list instead
			// of reading the body just to clear one bit. A NEW pending
			// state is published (the old one is immutable), so a fault-in
			// racing this pass — they take no locks — fails its CAS against
			// the superseded state and retries against this one, applying
			// the drop.
			if gid < st.body.cap {
				e.ans.p.Store(&answerState{body: st.body.withDrop(gid)})
			}
			return
		}
		if gid < st.set.Len() && st.set.Contains(gid) {
			s := st.set.Clone()
			s.Remove(gid)
			// The clone is owned until published: re-encode it into its
			// smallest container (removals are where near-full sets shed
			// dense words for run spans) before it becomes immutable.
			s.Compact()
			e.setAnswers(s)
		}
		// Every removal-affected entry just published a fresh set; true
		// up its interning (removal survivors often collapse onto each
		// other's canonical sets) while the locks are held.
		c.rechargeLocked(sh, e)
	})
	return nil
}

// withAllEntriesLocked runs fn over every admitted entry (with its owning
// shard) and every window-pending entry (with a nil shard — window
// entries' bytes are charged at insertion). It takes the full lock
// hierarchy below dsMu; caller holds dsMu exclusively.
//
//gclint:acquires policyMu shard
func (c *Cache) withAllEntriesLocked(fn func(sh *shard, e *Entry)) {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.lockAll()
	defer c.unlockAll()
	for _, sh := range c.shards {
		for _, e := range sh.entries {
			fn(sh, e)
		}
		for _, e := range sh.window {
			fn(nil, e)
		}
	}
}

// reconcileEntryLocked extends one entry's answer set to the view's id
// space, adjusting the owning shard's intern account for the new set (sh
// nil for window entries, interned at admission). Caller holds dsMu
// exclusively plus the full lock hierarchy, and has already faulted in
// any pending body.
//
//gclint:requires shard
func (c *Cache) reconcileEntryLocked(sh *shard, e *Entry, view ftv.DatasetView) {
	st := e.answers()
	if st.set.Len() == view.Size() {
		return
	}
	e.setAnswers(c.patchedAnswers(e, st.set, view))
	c.rechargeLocked(sh, e)
}

// rechargeLocked trues up the intern-pool reference of an entry whose
// answer set may have been swapped since the last pass (a stop-the-world
// maintenance swap, or a lazily restored body faulted in on the query
// path, where the pool cannot be touched). Entries charge their static
// footprint, which never drifts, so truing up means re-interning: acquire
// a canonical for the currently published set — collapsing it onto an
// equal pooled set when one exists — and release the previously interned
// one; the pool's byte account moves with the references. Caller holds
// the owning shard's write lock (sh nil for window entries, which are
// interned at admission, not before).
//
//gclint:requires shard
//gclint:acquires internMu
//gclint:loads answers e
func (c *Cache) rechargeLocked(sh *shard, e *Entry) {
	if sh == nil {
		return
	}
	st := e.answers()
	if st.body != nil {
		// Pending lazy body: nothing resident to intern yet. The decoded
		// set reaches the pool here, on the first true-up after the fault.
		return
	}
	if e.interned == st.set {
		return
	}
	canonical := sh.pool.acquire(st.set)
	if canonical != st.set {
		e.setAnswers(canonical)
	}
	sh.pool.release(e.interned)
	e.interned = canonical
}

// patchedAnswers returns set grown to the view's id space, with each live
// id in [set.Len(), view.Size()) — the graphs added since set was
// computed — verified for containment. Ids tombstoned in that range stay
// clear. Removal bits need no handling: removals clear them from every
// entry at mutation time.
func (c *Cache) patchedAnswers(e *Entry, set *bitset.Set, view ftv.DatasetView) *bitset.Set {
	from := set.Len()
	set = set.Grown(view.Size())
	for gid := from; gid < view.Size(); gid++ {
		if view.Graph(gid) == nil {
			continue
		}
		c.mon.maintenanceTests.Add(1)
		if view.VerifyCandidate(e.Graph, gid, e.Type) {
			set.Add(gid)
		}
	}
	return set
}

// DatasetInfo is a snapshot of the live dataset's shape.
type DatasetInfo struct {
	// Size is the id space: positions including tombstones.
	Size int
	// Live is the number of queryable (non-tombstoned) graphs.
	Live int
	// Epoch counts mutations: 0 at construction, +1 per add or remove.
	Epoch int64
}

// DatasetInfo reports the current dataset shape.
//
//gclint:pins dataset
func (c *Cache) DatasetInfo() DatasetInfo {
	v := c.method.View()
	return DatasetInfo{Size: v.Size(), Live: v.LiveCount(), Epoch: v.Epoch()}
}
