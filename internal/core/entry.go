package core

import (
	"sync/atomic"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// answerState is one immutable published answer set. Its capacity
// (set.Len()) is the dataset id space it is exact over; the cache keeps
// every entry's capacity equal to the current id space.
//
// A state with a non-nil body is PENDING: its bits still live in the
// snapshot file of a lazy restore (set is nil) and fault in on first
// loadAnswers. The decoded body carries the same exactness contract, so
// fault-in is just a deferred materialization of the same logical set,
// published through the cell's CAS (see persist.go).
//
//gclint:cow
type answerState struct {
	set  *bitset.Set
	body *lazyBody
}

// answersCell is the atomic holder of an entry's answer state. It lives
// behind a pointer in Entry so Entry values stay copyable (defensive
// copies share the cell, like they share the immutable Graph).
//
// Publication rules: the set inside a published state is never mutated —
// maintenance swaps in a freshly built set. Dataset mutations
// (Cache.AddGraph, Cache.RemoveGraph) swap under the full lock hierarchy
// with no queries in flight, and interning swaps under the owning shard's
// write lock. The query path publishes only one thing: a pending
// lazy-restore body faulting in, by CAS from the pending state.
type answersCell struct {
	// p publishes the answer state whole. Readers must pin ONE load per
	// operation (enforced by the snapshotonce analyzer).
	//
	//gclint:snapshot answers
	p atomic.Pointer[answerState]
}

// Entry is one cached query: the pattern graph, its exact answer set and
// the metadata consulted by hit detection and replacement policies.
// Entries are owned by the Cache; policies read them through the slices
// handed to ReplacedContent.
type Entry struct {
	// ID is a cache-unique, monotonically assigned identifier.
	ID int
	// Graph is the query pattern.
	Graph *graph.Graph
	// Type is the query semantics the answers correspond to.
	Type ftv.QueryType

	// ans holds the entry's exact answer set over dataset positions.
	// Read it through Answers.
	ans *answersCell

	// Fingerprint, LabelVec and Features index the entry for hit
	// detection: fingerprint equality pre-filters exact-match candidates;
	// label-vector and path-feature dominance pre-filter sub/super
	// candidates before any iso test.
	Fingerprint graph.Fingerprint
	LabelVec    graph.LabelVector
	Features    featureVec

	// FV and FeatureBits are the entry's containment summary, computed
	// once at admission (and rebuilt on state restore) and published in
	// the cache's hit index: FV is the fixed-size ftv.FeatureVector, and
	// FeatureBits blooms the path-feature hashes so feature dominance can
	// be refuted with one mask test. Both are immutable.
	FV          ftv.FeatureVector
	FeatureBits uint64

	// BaseCandidates is |C_M| when the query was originally executed —
	// the number of sub-iso tests an exact-match hit on this entry saves.
	BaseCandidates int

	// staticBytes is the size of everything but the answer set — graph,
	// signatures, struct overhead — computed once at construction so
	// Bytes() is O(1) and can be re-evaluated cheaply whenever the answer
	// set is swapped. Immutable.
	staticBytes int

	// resBytes is the entry's size as charged to the residency account at
	// admission: the static footprint only — answer bytes are charged
	// once per canonical set by the intern pool, however many entries
	// share it. Guarded by the owning shard's lock.
	resBytes int

	// interned is the canonical answer set the intern pool holds one
	// reference for on this entry's behalf; nil until admission. It can
	// trail the published set (a lazy-restore fault-in publishes on the
	// query path without touching the pool) and is trued up by
	// rechargeLocked at window turns and stop-the-world passes. Guarded
	// by the owning shard's lock, like resBytes.
	interned *bitset.Set

	// InsertedAt and LastUsed are query ticks (LRU/FIFO state).
	InsertedAt int64
	LastUsed   int64
	// Hits counts how many queries this entry contributed to (POP).
	Hits int64
	// SavedTests accumulates the number of dataset sub-iso tests this
	// entry saved (PIN utility), aged by the window decay factor.
	SavedTests float64
	// SavedCostNs accumulates the estimated cost of those saved tests in
	// nanoseconds (PINC utility), aged likewise.
	SavedCostNs float64
}

// Answers returns the entry's current answer set — exact with respect to
// the current dataset. The returned set is immutable; the cache replaces
// it whole when a dataset mutation changes it. On an entry restored
// lazily the first call faults the set in from the snapshot file (see
// persist.go).
//
//gclint:cowview
//gclint:loads answers
func (e *Entry) Answers() *bitset.Set { return e.loadAnswers().set }

// answers returns the entry's answer state as one load.
// The state may be PENDING (set nil, body non-nil) on a lazily restored
// entry: maintenance paths that must not trigger snapshot I/O (shard
// insertion, intern true-up, byte accounting) use this accessor and
// handle pending states explicitly; everything needing the bits goes
// through loadAnswers.
//
//gclint:cowview
//gclint:loads answers
func (e *Entry) answers() *answerState { return e.ans.p.Load() }

// loadAnswers returns the entry's answer state as one load, faulting the
// set in from the snapshot file first when the entry was restored
// lazily. Lock-free: fault-in publishes by CAS, so it is safe on the
// query path.
//
//gclint:cowview
//gclint:loads answers
func (e *Entry) loadAnswers() *answerState {
	st := e.ans.p.Load()
	if st.body != nil {
		st = e.faultAnswers(st)
	}
	return st
}

// setAnswers publishes a new materialized answer set. The set must not be
// mutated after the call. Callers replace only materialized states: a
// pending body changes by fault-in or by RemoveGraph's drop list.
func (e *Entry) setAnswers(set *bitset.Set) {
	e.ans.p.Store(&answerState{set: set})
}

// entryFromSig builds an Entry from a precomputed query signature — the
// single construction site for cache entries, shared by admission and
// state restores so the signature-derived fields (fingerprint, vectors,
// feature summaries) can never drift between the two paths.
func entryFromSig(id int, q *graph.Graph, qt ftv.QueryType, answers *bitset.Set, baseCandidates int, sig querySig, tick int64) *Entry {
	e := entryShell(id, q, qt, baseCandidates, sig, tick)
	// The set is owned here (every caller passes a fresh or cloned set)
	// and about to be published read-only for the entry's lifetime, so
	// pay the one-off re-encode into its smallest container now: sparse
	// for small answer sets, run for near-full ones, dense in between.
	answers.Compact()
	e.setAnswers(answers)
	return e
}

// entryShell builds an Entry with every signature-derived field populated
// but NO answer state published yet. The two construction paths finish it
// differently: entryFromSig publishes a materialized set, the lazy
// restore publishes a pending body (persist.go). Callers must publish
// exactly one state before the entry escapes.
func entryShell(id int, q *graph.Graph, qt ftv.QueryType, baseCandidates int, sig querySig, tick int64) *Entry {
	e := &Entry{
		ID:             id,
		Graph:          q,
		Type:           qt,
		ans:            &answersCell{},
		Fingerprint:    sig.fp,
		LabelVec:       sig.labelVec,
		Features:       sig.features,
		FV:             sig.fv,
		FeatureBits:    sig.featBits,
		BaseCandidates: baseCandidates,
		InsertedAt:     tick,
		LastUsed:       tick,
	}
	e.staticBytes = 224 + // struct (incl. feature summary) + bookkeeping
		q.Bytes() + 12*len(e.Features) + 8*len(e.LabelVec)
	return e
}

// Bytes estimates the entry's logical resident size: the immutable
// static part plus the current answer set. O(1). This is the entry's
// standalone footprint; the residency account charges staticBytes per
// entry plus each interned answer set once (see internPool), so summing
// Bytes over entries overstates a cache with cross-entry sharing.
func (e *Entry) Bytes() int {
	st := e.answers()
	if st.body != nil {
		// Pending body: estimate by its on-disk encoded length (the binary
		// container encoding mirrors the in-memory payload) rather than
		// faulting it in just to size it.
		return e.staticBytes + int(st.body.length)
	}
	return e.staticBytes + st.set.Bytes()
}

// age decays the adaptive utilities by factor.
func (e *Entry) age(factor float64) {
	e.SavedTests *= factor
	e.SavedCostNs *= factor
}
