package core

import (
	"sort"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// querySig bundles the per-query signatures computed once and reused by
// exact-match detection and sub/super candidate pre-filtering.
type querySig struct {
	fp       graph.Fingerprint
	labelVec graph.LabelVector
	features featureVec
	fv       ftv.FeatureVector
	featBits uint64
}

// signatureOf computes the full query signature. The WL fingerprint is
// memoized on the graph, so Execute's two-stage flow — fingerprint alone
// for the exact-match probe, the full signature only after an exact miss
// — never recomputes it here.
func (c *Cache) signatureOf(q *graph.Graph) querySig {
	features := pathFeatures(q, c.cfg.FeatureLen)
	return querySig{
		fp:       q.WLFingerprint(3),
		labelVec: graph.LabelVectorOf(q),
		features: features,
		fv:       ftv.ExtractFeatures(q),
		featBits: features.bits(),
	}
}

// findExact returns a cached (or window-pending) entry isomorphic to q
// with the same query type, or nil. Fingerprint equality pre-filters;
// VF2 confirms (fingerprints can collide, never the reverse).
//
// Only the owning shard is touched, under one read lock covering both its
// admitted entries and its pending window (isomorphic graphs share a
// fingerprint, so a match can live nowhere else), and only long enough to
// copy the colliding candidates; the confirming iso tests run lock-free
// over immutable entry fields. Two identical queries racing each other may
// therefore both miss and both be staged — benign: exact-match scans
// return the first isomorphic entry either way.
//
//gclint:acquires shard
func (c *Cache) findExact(q *graph.Graph, qt ftv.QueryType, fp graph.Fingerprint) *Entry {
	sh := c.shardFor(fp)
	sh.mu.RLock()
	var cands []*Entry
	if byFP := sh.byFP[fp]; len(byFP) > 0 {
		cands = append(cands, byFP...)
	}
	for _, e := range sh.window {
		if e.Fingerprint == fp {
			cands = append(cands, e)
		}
	}
	sh.mu.RUnlock()
	for _, e := range cands {
		if e.Type == qt && iso.Isomorphic(q, e.Graph) {
			return e
		}
	}
	return nil
}

// hitSet is the outcome of sub/super hit detection.
type hitSet struct {
	// sub holds entries h with q ⊑ h (the paper's "sub case").
	sub []*Entry
	// super holds entries h with h ⊑ q (the "super case").
	super []*Entry
	// isoTests counts q↔h containment tests spent.
	isoTests int
}

// detectHits finds the sub/super hits among the admitted entries of the
// query's type. Candidates come from one of two sound collectors —
// Config.IndexOff selects which — then are ranked by expected benefit and
// confirmed with budgeted VF2 runs: per direction at most 2× the hit
// budget of attempts and at most the budget of accepted hits.
//
// With the feature index on (the default), candidates are fetched from
// the lock-free published index: only entries whose containment summaries
// are compatible with the query's reach the exact dominance merges, and
// no shard lock, snapshot allocation or sort happens at all (see
// hitIndex). With IndexOff, detection scans an ID-ordered snapshot of the
// shards with the pre-index predicate — the measurable baseline.
//
// Either way the iso tests run without holding any lock: the consulted
// fields are immutable after admission, and a concurrently evicted entry
// still yields sound savings (its answer set remains exact over the
// immutable dataset). Candidate enumeration is ID-ordered and the benefit
// ranking breaks ties by ID, so detection is deterministic and
// independent of the shard count. The index may prune candidates the
// baseline would have spent (failing) VF2 attempts on, so the two modes
// can surface different hit sets within the attempt budget — answers stay
// exact either way, since hits only ever shrink verification work.
//
//gclint:acquires shard
func (c *Cache) detectHits(q *graph.Graph, qt ftv.QueryType, sig querySig) hitSet {
	var hs hitSet
	if c.cfg.MaxSubHits == 0 && c.cfg.MaxSuperHits == 0 {
		return hs
	}
	var subCand, superCand []*Entry
	if c.cfg.IndexOff {
		subCand, superCand = c.scanSnapshot(qt, sig)
	} else {
		subCand, superCand = c.scanIndex(qt, sig)
	}

	// Benefit ranking. Which direction delivers answers vs pruning depends
	// on the query type, but the proxy is the same either way: for
	// answer-delivering hits, larger answer sets save more tests; for
	// pruning hits, smaller answer sets exclude more candidates. Ties are
	// broken by entry ID: the order is then a function of the candidate
	// SET alone, which keeps detection deterministic even when the index
	// prunes elements out of the baseline's list.
	answersDeliverIsSub := qt == ftv.Subgraph
	rankCandidates(subCand, answersDeliverIsSub)
	rankCandidates(superCand, !answersDeliverIsSub)

	hs.sub, hs.super, hs.isoTests = c.confirmHits(q, subCand, superCand)
	return hs
}

// rankedCandidate pairs a hit candidate with its answer count sampled
// once, before the sort starts.
type rankedCandidate struct {
	e     *Entry
	count int
}

// rankCandidates orders a hit-candidate list in place by expected
// benefit — answer count, largerFirst choosing the direction — with
// entry-ID tie-breaks. Each entry's answer count is snapshotted exactly
// once before sorting, so the ordering stays consistent even if an
// answer cell is republished mid-sort (sort.Slice's result would
// otherwise be unspecified), keeping the ranking a deterministic
// function of the candidate set — and the sort pays one O(set) count per
// entry instead of per comparison.
//
//gclint:deterministic
//gclint:loads answers cands
func rankCandidates(cands []*Entry, largerFirst bool) {
	if len(cands) < 2 {
		return
	}
	rs := make([]rankedCandidate, len(cands))
	for i, e := range cands {
		rs[i] = rankedCandidate{e: e, count: e.Answers().Count()}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].count != rs[j].count {
			if largerFirst {
				return rs[i].count > rs[j].count
			}
			return rs[i].count < rs[j].count
		}
		return rs[i].e.ID < rs[j].e.ID
	})
	for i, r := range rs {
		cands[i] = r.e
	}
}

// scanSnapshot is the IndexOff candidate collector: an ID-ordered
// point-in-time snapshot of every shard, pre-filtered by size and by
// label-vector and path-feature dominance — the pre-index engine, kept as
// the measurable baseline for the indexed-vs-unindexed comparison.
//
//gclint:acquires shard
func (c *Cache) scanSnapshot(qt ftv.QueryType, sig querySig) (sub, super []*Entry) {
	all := c.entriesSnapshot()
	c.mon.hitScanEntries.Add(int64(len(all)))
	for _, e := range all {
		if e.Type != qt {
			continue
		}
		// Sub case q ⊑ h requires q to "fit inside" h.
		if int(sig.fv.Vertices) <= e.Graph.N() && int(sig.fv.Edges) <= e.Graph.M() {
			c.mon.hitFullChecks.Add(1)
			if sig.labelVec.DominatedBy(e.LabelVec) && sig.features.dominatedBy(e.Features) {
				sub = append(sub, e)
				continue
			}
		}
		// Super case h ⊑ q requires h to fit inside q.
		if e.Graph.N() <= int(sig.fv.Vertices) && e.Graph.M() <= int(sig.fv.Edges) {
			c.mon.hitFullChecks.Add(1)
			if e.LabelVec.DominatedBy(sig.labelVec) && e.Features.dominatedBy(sig.features) {
				super = append(super, e)
			}
		}
	}
	return sub, super
}

// confirmHits runs the budgeted VF2 confirmations over the ranked
// candidate lists, returning the accepted hits and the number of q↔h iso
// tests spent.
//
//gclint:nolocks
func (c *Cache) confirmHits(q *graph.Graph, subCand, superCand []*Entry) (sub, super []*Entry, isoTests int) {
	opts := iso.Options{MaxRecursions: c.cfg.HitIsoBudget}
	attempts := 0
	for _, e := range subCand {
		if len(sub) >= c.cfg.MaxSubHits || attempts >= 2*c.cfg.MaxSubHits {
			break
		}
		attempts++
		isoTests++
		if ok, _ := iso.VF2(q, e.Graph, opts); ok {
			sub = append(sub, e)
		}
	}
	attempts = 0
	for _, e := range superCand {
		if len(super) >= c.cfg.MaxSuperHits || attempts >= 2*c.cfg.MaxSuperHits {
			break
		}
		attempts++
		isoTests++
		if ok, _ := iso.VF2(e.Graph, q, opts); ok {
			super = append(super, e)
		}
	}
	return sub, super, isoTests
}
