package core

import (
	"math"
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
//   - REMOVALS are always stop-the-world and cheap: under the full lock
//     hierarchy the tombstoned gid's bit is cleared from every admitted
//     and window entry's answer set (a clone-and-clear pointer swap per
//     affected entry — no iso tests), and the method masks the gid out of
//     every future candidate set. Ids are never reused.
//
//   - ADDITIONS must decide, per cached entry, whether the new graph
//     belongs in its answer set — one containment test per entry. Eager
//     mode (the default) runs those tests at mutation time, bringing
//     every entry to the new epoch before any query runs again. Lazy mode
//     (Config.LazyReconcile) defers them: entries keep their epoch, and a
//     hit on a stale entry verifies exactly the delta graphs recorded in
//     the method's addition log before its answers are trusted — paid by
//     the queries that actually touch the entry, never by ones that
//     don't.
//
// Either way every individual answer set returned by Execute is exact for
// the query's dataset snapshot — the SelfCheck oracle and the churn
// equivalence suite assert byte-identical answers to the uncached method
// after every mutation.

// AddGraph appends g to the live dataset under a fresh stable id and
// maintains the cached state exactly: the verification-cost EMA array and
// all future per-query bitsets grow with the dataset, and cached answer
// sets are reconciled eagerly (default) or lazily (Config.LazyReconcile).
// It returns the new graph's id. The method must support AddGraph
// (ftv.NewDynamicMethod or a bundled constructor).
//
//gclint:acquires dsMu policyMu shard
func (c *Cache) AddGraph(g *graph.Graph) (int, error) {
	c.dsMu.Lock()
	defer c.dsMu.Unlock()
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

	if c.cfg.LazyReconcile {
		// Nothing to reconcile now, but the stop-the-world maintenance
		// pass (with a nil fn) still recomputes the compaction floor and
		// drops the addition records every entry has already passed — an
		// O(entries) epoch scan, no iso tests — so the log stays bounded
		// by the staleness of the coldest entry, not by the add count.
		c.withAllEntriesLocked(nil)
		return gid, nil
	}
	// Eager reconciliation: verify the new graph against every admitted
	// and window entry now, under the full hierarchy (no queries are in
	// flight — dsMu is held exclusively — so the swaps are unobservable).
	// Every entry leaves at the new epoch, so the trailing compaction
	// drains the whole log: in eager mode it never holds a record past
	// the mutation that appended it.
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
				e.ans.p.Store(&answerState{epoch: st.epoch, body: st.body.withDrop(gid)})
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
			// The epoch is NOT advanced: entry epochs track the addition
			// log only (removals apply to every entry right here), so an
			// unchanged epoch cannot skip a pending addition record.
			e.setAnswers(s, st.epoch)
		}
		// Every removal-affected entry just published a fresh set; true
		// up its interning (removal survivors often collapse onto each
		// other's canonical sets) while the locks are held.
		c.rechargeLocked(sh, e)
	})
	return nil
}

// withAllEntriesLocked runs fn (when non-nil) over every admitted entry
// (with its owning shard) and every window-pending entry (shard
// nil-checked via resBytes being uncharged — fn receives the owning shard
// only for admitted entries, nil for window entries, whose bytes are
// charged at insertion). It takes the full lock hierarchy below dsMu;
// caller holds dsMu exclusively. Before the locks drop it performs the
// stop-the-world maintenance duties every such pass owes: the per-shard
// window epoch floors are recomputed (fn may have raised pending entries'
// epochs) and the addition log is compacted up to the minimum entry
// epoch.
//
//gclint:acquires policyMu shard
func (c *Cache) withAllEntriesLocked(fn func(sh *shard, e *Entry)) {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.lockAll()
	defer c.unlockAll()
	if fn != nil {
		for _, sh := range c.shards {
			for _, e := range sh.entries {
				fn(sh, e)
			}
			for _, e := range sh.window {
				fn(nil, e)
			}
		}
	}
	for _, sh := range c.shards {
		sh.refreshWindowFloorLocked()
	}
	c.compactAdditionsLocked()
}

// Addition-log compaction. The method's addition log lets a stale entry
// reconcile by verifying only the graphs added since its epoch; once
// EVERY outstanding epoch-stamped answer set has passed a record, that
// record can never be consulted again and is dropped. The floor is the
// minimum dataset epoch across all admitted and window-pending entries —
// entries are the only holders of long-lived epochs (query-local views
// die with their query, and ReadState stamps restored entries with the
// current epoch), and entry epochs only ever rise, so a computed floor
// can only be conservative by the time the compaction lands.

// compactAdditionsLocked compacts with the full hierarchy held (the
// stop-the-world passes: dataset mutations and state restores), reading
// every window directly.
//
//gclint:requires policyMu shard
func (c *Cache) compactAdditionsLocked() {
	if c.method.AdditionLogLen() == 0 {
		return
	}
	floor := int64(math.MaxInt64)
	lower := func(e *Entry) {
		if ep := e.DatasetEpoch(); ep < floor {
			floor = ep
		}
	}
	for _, sh := range c.shards {
		for _, e := range sh.entries {
			lower(e)
		}
		for _, e := range sh.window {
			lower(e)
		}
	}
	c.compactTo(floor)
}

// compactAdditions is the per-shard window-turn variant: caller holds
// policyMu and only the TURNING shard's write lock. The other shards'
// admitted slices are safe to read — every structural shard mutation
// (insertLocked/removeLocked callers: turns, restores, stop-the-world
// passes) happens under policyMu, which the caller holds — and their
// pending windows are summarized by the atomic windowFloor instead of
// taking their locks (taking them here would break the fixed lockAll
// acquisition order). A staging that races the floor read is benign: the
// stager holds dsMu's read side, under which the dataset epoch cannot
// advance, so its entry carries the CURRENT epoch and only ever needs
// records above it — records this compaction, whose floor cannot exceed
// the current epoch's records, never drops.
//
//gclint:requires policyMu shard
func (c *Cache) compactAdditions(turning *shard) {
	if c.method.AdditionLogLen() == 0 {
		return
	}
	floor := int64(math.MaxInt64)
	for _, sh := range c.shards {
		for _, e := range sh.entries {
			if ep := e.DatasetEpoch(); ep < floor {
				floor = ep
			}
		}
		if sh == turning {
			// Just drained under our lock; scanned directly for the rare
			// concurrent re-stage between the drain and this point.
			for _, e := range sh.window {
				if ep := e.DatasetEpoch(); ep < floor {
					floor = ep
				}
			}
		} else if f := sh.windowFloor.Load(); f < floor {
			floor = f
		}
	}
	c.compactTo(floor)
}

// compactTo drops the addition records at or below floor, counting the
// compaction. A floor of 0 can drop nothing (records start at epoch 1);
// MaxInt64 — an empty cache — drains the whole log, which is safe: every
// future entry is stamped with at least the current epoch and only ever
// reconciles records above it.
func (c *Cache) compactTo(floor int64) {
	if floor <= 0 {
		return
	}
	if dropped := c.method.CompactAdditions(floor); dropped > 0 {
		c.mon.logCompactions.Add(1)
		c.mon.logRecordsDropped.Add(int64(dropped))
	}
}

// reconcileEntryLocked brings one entry to the view's epoch by verifying
// the delta additions, adjusting the owning shard's byte account for any
// answer-set growth (sh nil for window entries, charged at insertion).
// Caller holds dsMu exclusively plus the full lock hierarchy.
//
//gclint:requires shard
func (c *Cache) reconcileEntryLocked(sh *shard, e *Entry, view ftv.DatasetView) {
	st := e.answers()
	if st.body != nil {
		// Pending lazy body: leave it on disk at its old epoch. The entry
		// reconciles like any lazily-maintained one — the read path patches
		// the faulted set from the addition log — and the unchanged epoch
		// keeps the needed records alive (compaction floors read
		// DatasetEpoch, which never faults).
		return
	}
	if st.epoch >= view.Epoch() && st.set.Len() == view.Size() {
		return
	}
	set := c.patchedAnswers(e, st, view)
	e.setAnswers(set, view.Epoch())
	c.rechargeLocked(sh, e)
}

// rechargeLocked trues up the residency charge for an entry whose answer
// set may have been swapped since the last pass (lazy reconciliation
// publishes fresh sets on the query path, where neither the pool nor any
// account can be touched). Entries charge their static footprint, which
// never drifts, so truing up means re-interning: acquire a canonical for
// the currently published set — collapsing it onto an equal pooled set
// when one exists — and release the previously interned one; the pool's
// byte account moves with the references. The republish is a CAS so a
// racing query-path reconciler can never be regressed to an older epoch
// (which could skip compacted addition records); losing the race keeps
// the new reference and leaves the swap to the next true-up. Caller
// holds the owning shard's write lock (sh nil for window entries, which
// are interned at admission, not before).
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
		e.swapAnswers(st, canonical, st.epoch)
	}
	sh.pool.release(e.interned)
	e.interned = canonical
}

// reconciledAnswers returns e's answer set brought to the query view's
// epoch, verifying only the graphs added since the entry's epoch (the
// lazy-reconciliation read path; in eager mode entries are already
// current, making this a single atomic load). It runs lock-free under the
// read side of dsMu: racing reconcilers of the same entry compute
// identical states, so the last published one wins benignly. Byte
// accounts are deliberately NOT touched here (no shard lock is held);
// they are trued up at the owning shard's next window turn and at
// every stop-the-world maintenance pass (rechargeLocked).
//
//gclint:requires dsMu
//gclint:nolocks
//gclint:loads answers e
func (c *Cache) reconciledAnswers(e *Entry, view ftv.DatasetView) *bitset.Set {
	st := e.loadAnswers()
	if st.epoch >= view.Epoch() && st.set.Len() == view.Size() {
		return st.set
	}
	set := c.patchedAnswers(e, st, view)
	e.setAnswers(set, view.Epoch())
	return set
}

// patchedAnswers computes e's answer set at the view's epoch from the
// state st: grown to the view's id space, with each logged addition since
// st.epoch verified for containment (tombstoned additions are skipped —
// their bits were never set in st and must stay clear). Removal bits need
// no handling: removals clear them from every entry at mutation time.
func (c *Cache) patchedAnswers(e *Entry, st *answerState, view ftv.DatasetView) *bitset.Set {
	recs := view.AddsSince(st.epoch)
	set := st.set
	switch {
	case set.Len() != view.Size():
		set = set.Grown(view.Size())
	case len(recs) > 0:
		set = set.Clone()
	default:
		return set // removals-only delta: the set is already exact
	}
	for _, r := range recs {
		if view.Graph(r.GID) == nil {
			continue // added then removed before this entry caught up
		}
		c.mon.maintenanceTests.Add(1)
		if view.VerifyCandidate(e.Graph, r.GID, e.Type) {
			set.Add(r.GID)
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
