package core

import (
	"graphcache/internal/ftv"
)

// The cache-entry feature index: per-shard, copy-on-write arrays of
// per-entry containment summaries published through atomic pointers
// (shard.summaries). Hit detection reads them entirely lock-free — no
// shard locks, no snapshot allocation, no per-query sort — and uses the
// summaries (ftv.FeatureVector plus a path-feature bloom) to discard
// entries that cannot possibly be sub- or super-hit candidates before any
// label-vector or path-feature dominance merge runs.
//
// # Publication rules
//
// Writers never mutate a published slice. Each shard's slice is replaced
// whole — under policyMu plus that shard's write lock — whenever the
// shard's admitted set changes: a per-shard window turn or a state
// restore. The turning shard republishes only ITS slice (O(shard), not
// O(cache)); the global index a reader sees is simply the union of the
// per-shard slices, so the republish is visible the moment the single
// atomic store lands, and no other shard blocks or rebuilds.
//
// Readers load each shard's pointer once per query and work on those
// point-in-time arrays; an entry evicted after the load stays sound to
// use (its graph, answer set and summary are immutable), exactly like the
// shard-snapshot path. Scan order is shard-major rather than global ID
// order, which changes NOTHING downstream: every consumer is a function
// of the candidate SET — benefit ranking orders candidates by (answer
// count, entry ID) and eviction ranking is the policy's own sort — so
// detection stays deterministic at any fixed shard count. For a
// sequential stream the union always exactly mirrors the admitted
// entries: admitted sets change only inside policyMu, and every mutation
// republishes before its locks drop.
type indexEntry struct {
	typ      ftv.QueryType
	featBits uint64
	fv       ftv.FeatureVector
	e        *Entry
}

// summariesView returns the published summary slices, one per non-empty
// shard — the lock-free global view of the admitted entries. Exact under
// policyMu (turns and restores serialize there and republish before
// unlocking); a point-in-time union under concurrent reads.
//
//gclint:nolocks
//gclint:loads summaries
func (c *Cache) summariesView() [][]indexEntry {
	parts := make([][]indexEntry, 0, len(c.shards))
	for _, sh := range c.shards {
		if p := sh.summaries.Load(); p != nil && len(*p) > 0 {
			parts = append(parts, *p)
		}
	}
	return parts
}

// republishShardLocked replaces sh's published summary slice with a fresh
// copy of its admitted entries. Caller holds policyMu and sh's write
// lock. With Config.IndexOff nothing is built — the escape hatch runs
// pure snapshot scans.
//
//gclint:requires policyMu shard
func (c *Cache) republishShardLocked(sh *shard) {
	if c.cfg.IndexOff {
		return
	}
	s := make([]indexEntry, len(sh.entries))
	for i, e := range sh.entries {
		s[i] = indexEntry{typ: e.Type, featBits: e.FeatureBits, fv: e.FV, e: e}
	}
	sh.summaries.Store(&s)
}

// republishAllLocked refreshes every shard's summary slice — the
// stop-the-world republish used by state restores.
// Caller holds policyMu and every shard write lock.
//
//gclint:requires policyMu shard
func (c *Cache) republishAllLocked() {
	if c.cfg.IndexOff {
		return
	}
	for _, sh := range c.shards {
		c.republishShardLocked(sh)
	}
}

// scanIndex collects sub/super hit candidates from the published
// per-shard summaries. The summary checks (size, label bloom,
// label-degree bloom, degree tail, path-feature bloom) are necessary
// conditions for the corresponding containment, so a summary rejection
// safely skips the exact dominance merges; entries rejected in both
// directions without a merge are counted as index-pruned.
//
//gclint:nolocks
//gclint:loads summaries
func (c *Cache) scanIndex(qt ftv.QueryType, sig querySig) (sub, super []*Entry) {
	// Iterate the published per-shard slices directly rather than through
	// summariesView: the hot path then allocates no per-query parts slice.
	for _, sh := range c.shards {
		p := sh.summaries.Load()
		if p == nil || len(*p) == 0 {
			continue
		}
		entries := *p
		c.mon.hitScanEntries.Add(int64(len(entries)))
		for i := range entries {
			ie := &entries[i]
			if ie.typ != qt {
				continue
			}
			pruned := true
			// Sub case q ⊑ h: q's summary must be contained in h's.
			if sig.fv.ContainedIn(ie.fv) && sig.featBits&^ie.featBits == 0 {
				pruned = false
				c.mon.hitFullChecks.Add(1)
				if sig.labelVec.DominatedBy(ie.e.LabelVec) && sig.features.dominatedBy(ie.e.Features) {
					sub = append(sub, ie.e)
					continue
				}
			}
			// Super case h ⊑ q: h's summary must be contained in q's.
			if ie.fv.ContainedIn(sig.fv) && ie.featBits&^sig.featBits == 0 {
				pruned = false
				c.mon.hitFullChecks.Add(1)
				if ie.e.LabelVec.DominatedBy(sig.labelVec) && ie.e.Features.dominatedBy(sig.features) {
					super = append(super, ie.e)
				}
			}
			if pruned {
				c.mon.hitIndexPruned.Add(1)
			}
		}
	}
	return sub, super
}
