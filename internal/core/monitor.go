package core

import (
	"sync/atomic"
	"time"
)

// Monitor is the Statistics Monitor/Manager: cumulative operational
// metrics over a cache's lifetime, powering the Demonstrator's Sub-Iso
// Testing / Query Time / Cache Replacement panels. All counters are
// atomics so concurrent queries record their contributions without
// touching any cache lock; Snapshot reads are correspondingly lock-free
// (each counter is individually consistent, the set is approximate under
// concurrent load — exact once in-flight queries drain).
type Monitor struct {
	queries          atomic.Int64
	exactHits        atomic.Int64 // queries answered purely from cache
	subHitQueries    atomic.Int64 // queries with ≥1 sub-case hit
	superHitQueries  atomic.Int64 // queries with ≥1 super-case hit
	subHits          atomic.Int64 // total hit contributions
	superHits        atomic.Int64
	testsExecuted    atomic.Int64
	testsSaved       atomic.Int64
	hitDetectIso     atomic.Int64 // iso tests against cached queries
	hitScanEntries   atomic.Int64 // entries examined during hit detection
	hitFullChecks    atomic.Int64 // label/path dominance merges run
	hitIndexPruned   atomic.Int64 // entries the feature index rejected outright
	admissions       atomic.Int64
	evictions        atomic.Int64
	windowTurns      atomic.Int64
	datasetAdds      atomic.Int64 // live dataset graphs added
	datasetRemoves   atomic.Int64 // live dataset graphs tombstoned
	maintenanceTests atomic.Int64 // iso tests spent reconciling answer sets after additions
	stateBodyFaults  atomic.Int64 // lazy-restore answer bodies faulted in from the snapshot file
	filterNs         atomic.Int64
	hitNs            atomic.Int64
	verifyNs         atomic.Int64
}

// Snapshot is an immutable copy of the monitor's counters.
type Snapshot struct {
	// Queries is the number of executed queries.
	Queries int64
	// ExactHits counts queries served entirely from cache.
	ExactHits int64
	// SubHitQueries / SuperHitQueries count queries that had at least one
	// hit of that kind; SubHits / SuperHits count total contributions.
	SubHitQueries, SuperHitQueries int64
	SubHits, SuperHits             int64
	// TestsExecuted / TestsSaved count dataset sub-iso tests run vs
	// avoided thanks to the cache (savings vs the base Method M's C_M).
	TestsExecuted, TestsSaved int64
	// HitDetectionTests counts q↔h iso tests spent discovering hits —
	// the overhead side of the cache's ledger.
	HitDetectionTests int64
	// HitScanEntries counts cache entries examined during sub/super hit
	// detection; HitFullChecks counts the label-vector/path-feature
	// dominance merges that actually ran; HitIndexPruned counts entries
	// the feature index excluded from both hit directions before any
	// merge (always 0 with Config.IndexOff). Together they show what the
	// index saves: full checks and iso tests shrink, pruned grows.
	HitScanEntries, HitFullChecks, HitIndexPruned int64
	// Admissions / Evictions / WindowTurns are Cache-Manager counters.
	Admissions, Evictions, WindowTurns int64
	// DatasetAdds / DatasetRemoves count live dataset mutations;
	// MaintenanceTests counts the containment tests spent reconciling
	// cached answer sets after additions, at mutation time — the
	// maintenance side of the churn ledger.
	DatasetAdds, DatasetRemoves, MaintenanceTests int64
	// FilterInserts / FilterRebuilds split how dataset additions
	// maintained the method's filter: incremental copy-on-write inserts
	// (O(graph)) versus full factory rebuilds (O(dataset)). Both read
	// from the method, so they survive across caches sharing one.
	FilterInserts, FilterRebuilds int64
	// AnswerBytes is the intern pool's account: total bytes of the
	// distinct canonical answer sets, each charged once however many
	// entries share it. InternHits counts admissions/true-ups that reused
	// an already-pooled set; InternMisses counts the ones that inserted a
	// new canonical. All three read from the cache's pool, not the Monitor.
	AnswerBytes              int64
	InternHits, InternMisses int64
	// StateBodyFaults counts answer bodies faulted in from the snapshot
	// file after a lazy restore (RestoreStateLazy): 0 right after restore,
	// rising as queries first touch each restored entry's answers.
	StateBodyFaults int64
	// FilterTime, HitTime and VerifyTime split where query time went.
	FilterTime, HitTime, VerifyTime time.Duration
}

// Snapshot returns a copy of the current counters.
func (m *Monitor) Snapshot() Snapshot {
	return Snapshot{
		Queries:           m.queries.Load(),
		ExactHits:         m.exactHits.Load(),
		SubHitQueries:     m.subHitQueries.Load(),
		SuperHitQueries:   m.superHitQueries.Load(),
		SubHits:           m.subHits.Load(),
		SuperHits:         m.superHits.Load(),
		TestsExecuted:     m.testsExecuted.Load(),
		TestsSaved:        m.testsSaved.Load(),
		HitDetectionTests: m.hitDetectIso.Load(),
		HitScanEntries:    m.hitScanEntries.Load(),
		HitFullChecks:     m.hitFullChecks.Load(),
		HitIndexPruned:    m.hitIndexPruned.Load(),
		Admissions:        m.admissions.Load(),
		Evictions:         m.evictions.Load(),
		WindowTurns:       m.windowTurns.Load(),
		DatasetAdds:       m.datasetAdds.Load(),
		DatasetRemoves:    m.datasetRemoves.Load(),
		MaintenanceTests:  m.maintenanceTests.Load(),
		StateBodyFaults:   m.stateBodyFaults.Load(),
		FilterTime:        time.Duration(m.filterNs.Load()),
		HitTime:           time.Duration(m.hitNs.Load()),
		VerifyTime:        time.Duration(m.verifyNs.Load()),
	}
}

// TestSpeedup returns the paper's speedup metric in sub-iso test numbers:
// base tests (executed + saved) over executed tests; 1 when nothing ran.
func (s Snapshot) TestSpeedup() float64 {
	if s.TestsExecuted == 0 {
		if s.TestsSaved > 0 {
			return float64(s.TestsSaved + 1) // all tests avoided
		}
		return 1
	}
	return float64(s.TestsExecuted+s.TestsSaved) / float64(s.TestsExecuted)
}
