package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Cache is the GraphCache kernel deployed over a Method M, safe for
// concurrent use by many goroutines at once.
//
// # Locking discipline
//
// Admitted entries are partitioned across Config.Shards lock-striped
// shards by graph fingerprint; each shard carries its own RWMutex. The
// expensive stages of a query — Method M filtering, hit-detection iso
// tests and candidate verification — run without holding any lock at all:
// they operate on the immutable dataset, on immutable entry fields (Graph,
// Answers, signatures) and on the lock-free published feature index.
//
// There is no global coordinator mutex on the per-query path. Each shard
// owns its own admission window: admit stages the entry in the owning
// shard under that shard's lock, and findExact consults only the owning
// shard's admitted entries and pending window. Entry IDs come from an
// atomic counter (claimed under the owning shard's lock, so each shard's
// ID order stays monotonic), and the verification-cost EMAs are lock-free
// CAS cells. The one cross-shard serialization point that remains is
// policyMu — the replacement policy and the per-entry utility fields it
// mutates are one shared structure, so hit crediting (counter arithmetic,
// only on queries that actually hit) and window turns take it.
//
// Window turns are per-shard: a full shard window turns under policyMu
// plus that single shard's write lock, aging and evicting only the
// turning shard's residents (capacity itself stays global, tracked in an
// atomic resident account), then republishing only that shard's
// copy-on-write slice of the feature index — hit detection reads the
// union of the per-shard slices, so no other shard blocks or rebuilds
// (see index.go for the publication rules). The lock hierarchy is
// dsMu → policyMu → shard locks; reverse nestings never occur. dsMu is
// the dataset RWMutex: queries hold its read side for their whole run
// (pinning one dataset snapshot; queries never serialize against each
// other on it), live dataset mutations (AddGraph/RemoveGraph, see
// mutate.go) hold the write side while they patch cached answer sets.
// Operational counters (Monitor) are atomics and bypass locks entirely.
//
// # Determinism
//
// A graph's fingerprint pins it to one shard, so for a sequential query
// stream the per-shard admission order — and hence every hit
// classification, cache content and counter — is deterministic at any
// fixed shard count. Different shard counts stage and turn at different
// moments, so they may classify sub/super hits differently and age
// different cache contents, but every shard count returns byte-identical,
// exact answer sets (equivalence_test.go). Those guarantees are exact for
// timing-independent policies (LRU, FIFO, POP, PIN); PINC and the default
// HD rank victims by measured verification nanoseconds, so their eviction
// choices can vary between physical runs — any two runs, independent of
// sharding. Under concurrent submission admission order (and hence
// eviction choices) depends on goroutine scheduling, but every individual
// answer set remains exact.
//
// The lock hierarchy is machine-checked: the directive below and the
// //gclint: annotations on fields and functions drive the gclint
// analyzers (internal/lint), which fail the build on reverse nestings,
// unmet lock preconditions, and writes to published COW state.
//
//gclint:hierarchy dsMu policyMu shard
type Cache struct {
	method *ftv.Method
	cfg    Config
	policy Policy

	shards []*shard
	// shardWindow is the per-shard admission-window size:
	// ceil(Window/Shards), at least 1, so the total pending admissions
	// stay close to the configured W regardless of the shard count.
	shardWindow int

	// dsMu orders queries against live dataset mutations: Execute (and the
	// state save/restore paths) hold the read side for their whole
	// duration, so every query runs against ONE dataset snapshot and its
	// answer is exact for that snapshot; AddGraph/RemoveGraph take the
	// write side, which both drains all in-flight queries before the
	// mutation patches cached state and guarantees no query observes a
	// half-maintained cache. The outermost rung of the lock hierarchy:
	// dsMu → policyMu → shard locks.
	//gclint:lock dsMu
	dsMu sync.RWMutex

	// policyMu guards the replacement policy and the mutable per-entry
	// utility fields it reads and writes (Hits, LastUsed, SavedTests,
	// SavedCostNs): hit crediting, utility aging, and eviction accounting.
	// Never held across iso tests or dataset scans. Hierarchy: dsMu →
	// policyMu → shard locks.
	//gclint:lock policyMu
	policyMu sync.Mutex

	// nextID assigns entry IDs. Claimed under the owning shard's lock, so
	// each shard window's staging order is ascending in ID.
	nextID atomic.Int64

	// tick is the global query sequence number (atomic: assigned at query
	// start, before any lock).
	tick atomic.Int64

	// costVal and globalVal are lock-free EMA cells tracking per-dataset-
	// graph (and overall) verification cost in float64 ns, stored as bits
	// (0 bits = no estimate yet). Updates are CAS loops; reads are single
	// atomic loads, so neither hit crediting nor cost recording takes any
	// lock.
	costVal   []atomic.Uint64
	globalVal atomic.Uint64

	// res tracks cache-wide resident entries/bytes atomically, letting a
	// turning shard enforce the global capacity and memory budget without
	// other shards' locks (see residency). res covers static entry bytes
	// only; the shared answer-set bytes live in pool's account.
	res residency

	// pool interns answer sets across entries (see intern.go): identical
	// published sets collapse onto one canonical allocation, charged once.
	// Its mutex is a leaf — acquired under shard locks, never the reverse —
	// so it sits outside the checked hierarchy.
	pool *internPool

	mon Monitor
}

// defaultCostNs seeds cost estimates before any verification ran.
const defaultCostNs = 50_000

// costAlpha and globalCostAlpha are the EMA smoothing factors for the
// per-graph and overall verification-cost estimates.
const (
	costAlpha       = 0.3
	globalCostAlpha = 0.05
)

// New builds a Cache over the method. The config is validated; a nil
// Policy defaults to a fresh HD instance.
func New(method *ftv.Method, cfg Config) (*Cache, error) {
	if err := cfg.validate(method); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = NewHD()
	}
	if cfg.Shards == 0 {
		cfg.Shards = DefaultShards
	}
	c := &Cache{
		method:  method,
		cfg:     cfg,
		policy:  cfg.Policy,
		costVal: make([]atomic.Uint64, method.DatasetSize()),
	}
	c.pool = newInternPool()
	c.shards = newShards(cfg.Shards, &c.res, c.pool)
	c.shardWindow = (cfg.Window + cfg.Shards - 1) / cfg.Shards
	if c.shardWindow < 1 {
		c.shardWindow = 1
	}
	return c, nil
}

// MustNew is New that panics on error, for tests and examples with
// constant configs.
func MustNew(method *ftv.Method, cfg Config) *Cache {
	c, err := New(method, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Method returns the underlying Method M.
func (c *Cache) Method() *ftv.Method { return c.method }

// PolicyName returns the active replacement policy's name.
func (c *Cache) PolicyName() string { return c.policy.Name() }

// Shards returns the number of lock shards the cache was built with.
func (c *Cache) Shards() int { return len(c.shards) }

// newID claims the next entry ID. Callers hold the owning shard's lock,
// which keeps each shard window's staging order ascending in ID.
func (c *Cache) newID() int {
	return int(c.nextID.Add(1) - 1)
}

// Len returns the number of admitted entries (excluding the windows). It
// reads the atomic residency account — every shard insert and removal
// maintains it — instead of walking the shards under their locks.
func (c *Cache) Len() int {
	return int(c.res.entries.Load())
}

// WindowLen returns the number of entries pending admission across all
// admission windows.
//
//gclint:acquires shard
func (c *Cache) WindowLen() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.RLock()
		n += len(sh.window)
		sh.mu.RUnlock()
	}
	return n
}

// Bytes returns the estimated resident size of admitted entries: the
// static footprints from the atomic residency account (the same totals
// the per-shard memBytes fields sum to — asserted by
// TestResidencyAccountAgreement) plus the interned answer sets, each
// charged once however many entries share it.
func (c *Cache) Bytes() int {
	return int(c.res.bytes.Load() + c.pool.bytes.Load())
}

// Stats returns a snapshot of the operational counters, supplemented
// with the method-side filter-maintenance counters (those live on the
// method, which outlives any one cache).
func (c *Cache) Stats() Snapshot {
	s := c.mon.Snapshot()
	s.FilterInserts = c.method.FilterInserts()
	s.FilterRebuilds = c.method.FilterRebuilds()
	s.AnswerBytes = c.pool.bytes.Load()
	s.InternHits = c.pool.hits.Load()
	s.InternMisses = c.pool.misses.Load()
	return s
}

// ShardStat is one shard's occupancy snapshot: resident entries, pending
// admissions in the shard's window, per-shard window turns and resident
// bytes. Bytes covers the shard's static entry footprints only — answer
// bytes are pooled cache-wide (Snapshot.AnswerBytes). The shards' Turns
// sum to the Monitor's aggregate WindowTurns.
type ShardStat struct {
	Entries   int
	WindowLen int
	Turns     int64
	Bytes     int
}

// ShardStats reports each shard's occupancy in shard order. Each shard is
// read under its own read lock; the set is approximate under concurrent
// load, exactly like the Monitor counters.
//
//gclint:acquires shard
func (c *Cache) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i, sh := range c.shards {
		sh.mu.RLock()
		out[i] = ShardStat{
			Entries:   len(sh.entries),
			WindowLen: len(sh.window),
			Turns:     sh.turns.Load(),
			Bytes:     sh.memBytes,
		}
		sh.mu.RUnlock()
	}
	return out
}

// Entries returns the admitted entries in admission order as defensive
// copies: the Entry structs are snapshots taken under policyMu (so the
// mutable utility fields are read race-free; admissions and evictions
// also serialize on policyMu), while Graph, Answers and the signature
// fields still alias the cache's immutable originals. Intended for
// demonstrators and tests inspecting cache contents.
//
//gclint:acquires policyMu shard
func (c *Cache) Entries() []*Entry {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	all := c.entriesSnapshot()
	out := make([]*Entry, len(all))
	for i, e := range all {
		cp := *e
		out[i] = &cp
	}
	return out
}

// Execute processes one query through the cache. The returned Result owns
// its bitsets; callers may mutate them freely (mathematically-equal
// fields may alias one set — see the Result doc comment). Execute is safe
// to call from any number of goroutines; see the Cache doc comment for
// what runs in parallel and what serializes.
//
//gclint:acquires dsMu policyMu shard
//gclint:pins dataset
func (c *Cache) Execute(q *graph.Graph, qt ftv.QueryType) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("core: nil query graph")
	}
	// The read side of the dataset mutex pins one dataset snapshot for the
	// whole query: filtering, hit detection, verification, self-check and
	// admission all see the same dataset. Queries share the read side
	// freely; only AddGraph/RemoveGraph take the write side.
	c.dsMu.RLock()
	defer c.dsMu.RUnlock()
	view := c.method.View()

	tick := c.tick.Add(1)
	c.mon.queries.Add(1)
	n := view.Size()
	// Stage 0: fingerprint only. The exact-match probe consults nothing
	// else, so the expensive half of the signature (path features, label
	// vector, feature vector) is deferred until a miss is certain. The
	// fingerprint itself is memoized on the immutable query graph.
	fp := q.WLFingerprint(3)

	// Stage 1: exact-match fast path — zero dataset tests.
	t0 := time.Now()
	if e := c.findExact(q, qt, fp); e != nil {
		ans := e.Answers()
		hitTime := time.Since(t0)
		saved := e.BaseCandidates
		// Price the savings like the sub/super path does: per-graph cost
		// estimates over the entry's answer set, the overall mean only for
		// the remainder of C_M (the candidates that verified negative).
		// Pricing every saved test at the mean would under-credit entries
		// whose savings concentrate on expensive graphs, skewing PINC/HD
		// victim ranking against exactly the entries worth keeping.
		cost := 0.0
		inAnswers := 0
		ans.ForEach(func(gid int) bool {
			inAnswers++
			cost += c.estimatedCost(gid)
			return true
		})
		if rem := saved - inAnswers; rem > 0 {
			cost += float64(rem) * c.estimatedMeanCost()
		}
		ev := &HitEvent{
			Entry:       e,
			Kind:        ExactHit,
			SavedTests:  saved,
			SavedCostNs: cost,
			Tick:        tick,
		}
		c.policyMu.Lock()
		c.policy.UpdateCacheStaInfo(ev)
		c.policyMu.Unlock()
		c.mon.exactHits.Add(1)
		c.mon.testsSaved.Add(int64(saved))
		c.mon.hitNs.Add(hitTime.Nanoseconds())
		// A = S on an exact hit, so Answers and Sure share one clone, and
		// the empty Excluded/Survivors sets stay in the lazy all-zero
		// representation — see the aliasing note on Result.
		shared := ans.Clone()
		res := &Result{
			Answers:        shared,
			BaseCandidates: saved,
			Candidates:     0,
			Tests:          0,
			Sure:           shared,
			Excluded:       bitset.New(n),
			Survivors:      bitset.New(n),
			Hits:           []HitRef{{EntryID: e.ID, Kind: ExactHit, SavedTests: saved}},
			ExactHit:       true,
			HitTime:        hitTime,
		}
		c.selfCheck(q, qt, res)
		return res, nil
	}
	hitTime := time.Since(t0)
	sig := c.signatureOf(q)

	// Stage 2: Method M filtering (lock-free: the view's filter index is
	// immutable). The returned set is freshly built for this query, so the
	// algebra below may consume it in place once its count is captured.
	tf := time.Now()
	cm := view.Candidates(q, qt)
	filterTime := time.Since(tf)
	cmCount := cm.Count()

	// Stage 3: sub/super hit detection over a point-in-time snapshot of
	// the cache. The iso tests run without any lock; entries evicted
	// mid-detection stay sound (their answer sets remain exact over the
	// immutable dataset).
	th := time.Now()
	hs := c.detectHits(q, qt, sig)
	hitTime += time.Since(th)
	c.mon.hitDetectIso.Add(int64(hs.isoTests))

	// Stage 4: candidate algebra. Which direction delivers guaranteed
	// answers (S) versus pruning (S′) depends on the query type; see the
	// package comment for the containment proofs.
	answerHits, pruneHits := hs.sub, hs.super
	answerKind, pruneKind := SubHit, SuperHit
	if qt == ftv.Supergraph {
		answerHits, pruneHits = hs.super, hs.sub
		answerKind, pruneKind = SuperHit, SubHit
	}

	// Saved-test sets and their cost estimates are computed lock-free (the
	// cost cells are atomic); only the policy updates run under policyMu,
	// keeping the critical section to counter arithmetic per hit. The
	// saved-set intersections/differences iterate word-parallel over the
	// operands directly (ForEachAnd/ForEachAndNot) — no intermediate set
	// is materialized per hit.
	sc := getExecScratch()
	defer putExecScratch(sc)
	credits := sc.credits[:0]
	sure := bitset.New(n)
	for _, h := range answerHits {
		ha := h.Answers()
		saved, cost := 0, 0.0
		ha.ForEachAnd(cm, func(gid int) bool {
			saved++
			cost += c.estimatedCost(gid)
			return true
		})
		credits = append(credits, hitCredit{h, answerKind, saved, cost})
		sure.Or(ha)
	}
	// candPruned aliases cm until the first pruning hit forces a private
	// copy; cm itself is only needed for counts after this point, which
	// cmCount already captured.
	candPruned := cm
	for _, h := range pruneHits {
		ha := h.Answers()
		saved, cost := 0, 0.0
		cm.ForEachAndNot(ha, func(gid int) bool {
			saved++
			cost += c.estimatedCost(gid)
			return true
		})
		credits = append(credits, hitCredit{h, pruneKind, saved, cost})
		if candPruned == cm {
			candPruned = cm.Clone()
		}
		candPruned.And(ha)
	}
	sc.credits = credits
	var hits []HitRef
	if len(credits) > 0 {
		c.policyMu.Lock()
		for _, cr := range credits {
			c.creditHit(cr.h, cr.kind, cr.saved, cr.cost, tick, &hits)
		}
		c.policyMu.Unlock()
	}
	// S′ = C_M \ (C_M ∩ ⋂ A(h′)) — provably empty (and kept lazy) when no
	// pruning hit narrowed the candidates.
	var excluded *bitset.Set
	if candPruned != cm {
		excluded = cm.Clone()
		excluded.AndNot(candPruned)
	} else {
		excluded = bitset.New(n)
	}

	// C = (C_M ∩ ⋂ A(h')) \ S, consuming candPruned in place (when it
	// still aliases cm this retires cm too — its count lives on in
	// cmCount).
	cand := candPruned
	cand.AndNot(sure)

	if len(hs.sub) > 0 {
		c.mon.subHitQueries.Add(1)
		c.mon.subHits.Add(int64(len(hs.sub)))
	}
	if len(hs.super) > 0 {
		c.mon.superHitQueries.Add(1)
		c.mon.superHits.Add(int64(len(hs.super)))
	}

	// Stage 5: verification of the reduced candidate set (lock-free; cost
	// samples fold into the EMA cells with CAS, no lock either).
	tv := time.Now()
	tests := cand.Count()
	survivors, costs := c.verify(view, q, qt, cand, sc)
	verifyTime := time.Since(tv)
	c.recordCosts(costs)

	// A = R ∪ S. When no answer-delivering hit contributed (sure is
	// empty), A = R exactly and Answers shares Survivors' set — see the
	// aliasing note on Result.
	answers := survivors
	if !sure.Empty() {
		answers = survivors.Clone()
		answers.Or(sure)
	}

	c.mon.testsExecuted.Add(int64(tests))
	c.mon.testsSaved.Add(int64(cmCount - tests))
	c.mon.filterNs.Add(filterTime.Nanoseconds())
	c.mon.hitNs.Add(hitTime.Nanoseconds())
	c.mon.verifyNs.Add(verifyTime.Nanoseconds())

	res := &Result{
		Answers:        answers,
		BaseCandidates: cmCount,
		Candidates:     tests,
		Tests:          tests,
		Sure:           sure,
		Excluded:       excluded,
		Survivors:      survivors,
		Hits:           hits,
		FilterTime:     filterTime,
		HitTime:        hitTime,
		VerifyTime:     verifyTime,
	}
	c.selfCheck(q, qt, res)

	// Stage 6: admission via the window manager. The answers are exact
	// for the pinned dataset, and every later mutation patches the entry
	// before a query can read it again.
	c.admit(q, qt, answers.Clone(), cmCount, sig, tick)
	return res, nil
}

// hitCredit is one hit's pending policy credit, accumulated lock-free and
// applied in a single policyMu section.
type hitCredit struct {
	h     *Entry
	kind  HitKind
	saved int
	cost  float64
}

// execScratch holds the per-query working buffers of Execute's miss path:
// candidate id lists, verification cost samples and verdicts, and pending
// hit credits. Nothing in it escapes the query (results are built from
// fresh or lazily-empty sets), so the buffers recycle through a pool —
// one warmed-up scratch per concurrently executing query (hot-path memory
// discipline, see doc.go).
type execScratch struct {
	ids      []int
	costs    []costSample
	verdicts []verdict
	credits  []hitCredit
}

var execScratchPool = sync.Pool{New: func() any { return new(execScratch) }}

func getExecScratch() *execScratch { return execScratchPool.Get().(*execScratch) }

func putExecScratch(sc *execScratch) {
	// Drop entry pointers so a pooled scratch never pins evicted entries.
	for i := range sc.credits {
		sc.credits[i].h = nil
	}
	sc.credits = sc.credits[:0]
	execScratchPool.Put(sc)
}

// creditHit updates policy utilities and the result's hit list. Caller
// holds policyMu.
//
//gclint:requires policyMu
func (c *Cache) creditHit(h *Entry, kind HitKind, savedTests int, savedCost float64, tick int64, hits *[]HitRef) {
	ev := &HitEvent{
		Entry:       h,
		Kind:        kind,
		SavedTests:  savedTests,
		SavedCostNs: savedCost,
		Tick:        tick,
	}
	c.policy.UpdateCacheStaInfo(ev)
	*hits = append(*hits, HitRef{EntryID: h.ID, Kind: kind, SavedTests: savedTests})
}

// estimatedCost reads one graph's cost estimate from its lock-free cell.
//
//gclint:nolocks
//gclint:noalloc
func (c *Cache) estimatedCost(gid int) float64 {
	if bits := c.costVal[gid].Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return c.estimatedMeanCost()
}

// estimatedMeanCost reads the overall cost estimate from its lock-free
// cell.
//
//gclint:nolocks
//gclint:noalloc
func (c *Cache) estimatedMeanCost() float64 {
	if bits := c.globalVal.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return defaultCostNs
}

// emaAdd folds one observation into a lock-free EMA cell: the first
// observation initializes the average directly (0 bits marks an empty
// cell), later ones blend with factor alpha. Contended updates retry; the
// arithmetic matches stats.EMA, so sequential streams produce the same
// estimates the coordinator-locked engine did.
//
//gclint:nolocks
//gclint:noalloc
func emaAdd(cell *atomic.Uint64, alpha, x float64) {
	for {
		old := cell.Load()
		v := x
		if old != 0 {
			v = alpha*x + (1-alpha)*math.Float64frombits(old)
		}
		if cell.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// costSample is one measured sub-iso verification.
type costSample struct {
	gid int
	dur time.Duration
}

// verify runs the sub-iso tests over the candidate set, sequentially or
// with a bounded worker pool, against the query's dataset view. It holds
// no locks; measured costs are returned for the caller to fold into the
// EMA cells.
//
//gclint:nolocks
func (c *Cache) verify(view ftv.DatasetView, q *graph.Graph, qt ftv.QueryType, cand *bitset.Set, sc *execScratch) (*bitset.Set, []costSample) {
	n := view.Size()
	out := bitset.New(n)
	sc.ids = cand.AppendIndices(sc.ids[:0])
	ids := sc.ids
	if len(ids) == 0 {
		return out, nil
	}
	if cap(sc.costs) < len(ids) {
		sc.costs = make([]costSample, 0, len(ids))
	}
	costs := sc.costs[:0]
	if c.cfg.VerifyWorkers < 2 || len(ids) < 4 {
		for _, gid := range ids {
			t0 := time.Now()
			ok := view.VerifyCandidate(q, gid, qt)
			costs = append(costs, costSample{gid, time.Since(t0)})
			if ok {
				out.Add(gid)
			}
		}
		sc.costs = costs
		return out, costs
	}

	workers := c.cfg.VerifyWorkers
	if workers > len(ids) {
		workers = len(ids)
	}
	if cap(sc.verdicts) < len(ids) {
		sc.verdicts = make([]verdict, len(ids))
	}
	results := sc.verdicts[:len(ids)]
	var wg sync.WaitGroup
	chunk := (len(ids) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(ids) {
			hi = len(ids)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				gid := ids[i]
				t0 := time.Now()
				ok := view.VerifyCandidate(q, gid, qt)
				results[i] = verdict{gid, ok, time.Since(t0)}
			}
		}(lo, hi)
	}
	wg.Wait()
	for _, v := range results {
		costs = append(costs, costSample{v.gid, v.dur})
		if v.ok {
			out.Add(v.gid)
		}
	}
	sc.costs = costs
	return out, costs
}

// verdict is one parallel verification outcome, indexed by candidate
// position.
type verdict struct {
	gid int
	ok  bool
	dur time.Duration
}

// recordCosts folds measured verification costs into the EMA cells —
// entirely lock-free (CAS per sample).
//
//gclint:nolocks
//gclint:noalloc
func (c *Cache) recordCosts(costs []costSample) {
	for _, s := range costs {
		ns := float64(s.dur.Nanoseconds())
		emaAdd(&c.costVal[s.gid], costAlpha, ns)
		emaAdd(&c.globalVal, globalCostAlpha, ns)
	}
}

// admit stages the executed query in the owning shard's window and turns
// that window when full (the Window Manager). Staging touches only the
// owning shard's lock.
//
//gclint:acquires policyMu shard
func (c *Cache) admit(q *graph.Graph, qt ftv.QueryType, answers *bitset.Set, baseCandidates int, sig querySig, tick int64) {
	sh := c.shardFor(sig.fp)
	sh.mu.Lock()
	sh.window = append(sh.window, entryFromSig(c.newID(), q, qt, answers, baseCandidates, sig, tick))
	full := len(sh.window) >= c.shardWindow
	sh.mu.Unlock()
	if full {
		c.turnShard(sh)
	}
}

// turnShard ages utilities, makes room and admits one shard's pending
// window. Victims are selected among the shard's RESIDENT entries before
// admission — the newly executed queries always get in, displacing the
// least-useful cached graphs (Figure 2(c)); evicting after admission
// would instead throw away the newcomers, whose utilities are necessarily
// still zero. Capacity is enforced globally through the resident account
// (exact here: only policyMu holders admit or evict), but victims come
// only from the turning shard — capacity flows to the shards receiving
// traffic, and if this shard alone cannot pay the excess down the
// overshoot is cleared by the next turns of the shards that can. Aging,
// eviction accounting and the policy callbacks run under policyMu; the
// structural mutation holds only this shard's write lock, so queries
// owned by other shards proceed untouched. The staging path releases the
// shard lock before calling turnShard (hierarchy: policyMu → shard
// locks), so a racing turn may drain the window first — the re-check
// under both locks makes that benign.
//
//gclint:acquires policyMu shard
func (c *Cache) turnShard(sh *shard) {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.window) < c.shardWindow {
		return // another goroutine turned this shard first
	}
	c.mon.windowTurns.Add(1)
	sh.turns.Add(1)
	c.policy.OnWindowTurn()

	for _, e := range sh.entries {
		e.age(c.cfg.DecayFactor)
		// True up this entry's interning: a lazily restored body may have
		// faulted in on the query path, where the pool cannot be touched.
		// O(1) per entry; keeps the memory-budget enforcement below honest.
		c.rechargeLocked(sh, e)
	}
	// The cross-shard ranking view is built once and reused by every
	// eviction pass of this turn: it reflects the published summaries
	// (stale with respect to this turn's own evictions and admissions),
	// so victim selection re-checks residency against the live shard.
	view := c.rankingView()
	if excess := int(c.res.entries.Load()) + len(sh.window) - c.cfg.Capacity; excess > 0 {
		c.evictShardLocked(sh, excess, view)
	}
	for _, e := range sh.window {
		sh.insertLocked(e)
		c.mon.admissions.Add(1)
	}
	sh.window = sh.window[:0]

	// A window larger than the remaining capacity can still overflow.
	if excess := int(c.res.entries.Load()) - c.cfg.Capacity; excess > 0 {
		c.evictShardLocked(sh, excess, view)
	}
	for c.cfg.MemoryBudget > 0 && int(c.res.bytes.Load()+c.pool.bytes.Load()) > c.cfg.MemoryBudget && len(sh.entries) > 1 {
		c.evictShardLocked(sh, 1, view)
	}

	// Republish this shard's slice of the feature index before the shard
	// lock drops, so queries never observe an index ahead of or behind
	// the admitted entries. O(this shard) — the other shards' published
	// slices remain valid as-is.
	c.republishShardLocked(sh)
}

// chooseVictims returns x distinct, in-range positions into the
// ID-ordered slice all, as selected by the policy. The policy's returned
// positions are sanitized defensively against buggy custom policies
// (duplicates or out-of-range indices are dropped; a shortfall is filled
// FIFO). Caller holds policyMu.
//
//gclint:requires policyMu
func (c *Cache) chooseVictims(all []*Entry, x int) []int {
	if x > len(all) {
		x = len(all)
	}
	pos := c.policy.ReplacedContent(all, x)
	seen := make(map[int]bool, len(pos))
	var victims []int
	for _, p := range pos {
		if p >= 0 && p < len(all) && !seen[p] {
			seen[p] = true
			victims = append(victims, p)
			if len(victims) == x {
				break
			}
		}
	}
	if len(victims) < x {
		// Fill the shortfall oldest-first.
		order := make([]int, len(all))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return all[order[a]].InsertedAt < all[order[b]].InsertedAt
		})
		for _, p := range order {
			if !seen[p] {
				seen[p] = true
				victims = append(victims, p)
				if len(victims) == x {
					break
				}
			}
		}
	}
	return victims
}

// rankingView flattens the published per-shard summaries into the
// cross-shard ranking input for eviction. Nil with IndexOff (no
// published view). Caller holds policyMu.
//
//gclint:requires policyMu
func (c *Cache) rankingView() []*Entry {
	if c.cfg.IndexOff {
		return nil
	}
	var view []*Entry
	for _, part := range c.summariesView() {
		for i := range part {
			view = append(view, part[i].e)
		}
	}
	return view
}

// evictShardLocked removes x policy-chosen victims from sh's residents.
// Caller holds policyMu and sh's write lock; view is the caller's
// rankingView (built once per turn and reused across eviction passes).
//
// The ranking context is global even though the victims are local: the
// policy ranks the full admitted set off the published feature index,
// and the x worst-ranked entries OWNED BY THIS SHARD are evicted. For
// score policies whose utilities are per-entry (LRU, FIFO, POP, PIN,
// PINC) this equals ranking the shard alone; for HD — whose score
// normalizes against the min/max utilities of the slice it is shown —
// it keeps victim choice consistent with a ranking of the whole cache.
// The view can be stale with respect to the current turn (entries it
// already evicted, newcomers it admitted — republish happens once at the
// end), so selection admits only entries still resident in sh; with
// IndexOff (nil view) the ranking falls back to the shard's own entries.
//
//gclint:requires policyMu shard
func (c *Cache) evictShardLocked(sh *shard, x int, view []*Entry) {
	if x <= 0 || len(sh.entries) == 0 {
		return
	}
	if x > len(sh.entries) {
		x = len(sh.entries)
	}
	es := make([]*Entry, 0, x)
	if len(view) <= len(sh.entries) {
		// No published view (IndexOff) or this shard is the whole cache:
		// rank the shard alone.
		victims := c.chooseVictims(sh.entries, x)
		// Resolve positions to entries before the first removal shifts
		// the slice underneath them.
		for _, p := range victims {
			es = append(es, sh.entries[p])
		}
	} else {
		// Ask for progressively deeper prefixes of the global ranking
		// until x of this shard's entries appear in it. ReplacedContent
		// returns the k least-useful positions, so doubling k walks down
		// the ranking; k = len(view) contains every entry, hence always
		// enough. Start at x×shards — with fingerprint-uniform residency
		// that prefix is expected to hold x of ours, so one ranking call
		// usually suffices.
		for k := x * len(c.shards); ; k *= 2 {
			if k > len(view) {
				k = len(view)
			}
			es = es[:0]
			for _, p := range c.chooseVictims(view, k) {
				if e := view[p]; sh.containsLocked(e) {
					es = append(es, e)
					if len(es) == x {
						break
					}
				}
			}
			if len(es) == x || k == len(view) {
				break
			}
		}
		if len(es) < x {
			// The view predates this turn's admissions, so an overflowing
			// window can leave a shortfall: fill it ranking the shard's
			// remainder.
			chosen := make(map[*Entry]bool, len(es))
			for _, e := range es {
				chosen[e] = true
			}
			rest := make([]*Entry, 0, len(sh.entries))
			for _, e := range sh.entries {
				if !chosen[e] {
					rest = append(rest, e)
				}
			}
			for _, p := range c.chooseVictims(rest, x-len(es)) {
				es = append(es, rest[p])
			}
		}
	}
	for _, e := range es {
		sh.removeLocked(e)
		c.mon.evictions.Add(1)
	}
}

// evictLocked removes x entries chosen by the policy from the ID-ordered
// slice all (the canonical cross-shard view) and from their owning shards,
// returning the surviving slice. Caller holds policyMu and all shard
// write locks (state restores).
//
//gclint:requires policyMu shard
func (c *Cache) evictLocked(all []*Entry, x int) []*Entry {
	if x <= 0 || len(all) == 0 {
		return all
	}
	victims := c.chooseVictims(all, x)
	evictSet := make(map[int]bool, len(victims))
	for _, p := range victims {
		evictSet[p] = true
	}
	kept := all[:0]
	for i, e := range all {
		if evictSet[i] {
			c.shardFor(e.Fingerprint).removeLocked(e)
			c.mon.evictions.Add(1)
			continue
		}
		kept = append(kept, e)
	}
	// Zero the tail so evicted entries are collectable.
	for i := len(kept); i < len(all); i++ {
		all[i] = nil
	}
	return kept
}

// selfCheck cross-validates a result against the uncached method when
// enabled; any mismatch is a kernel bug, hence the panic.
func (c *Cache) selfCheck(q *graph.Graph, qt ftv.QueryType, res *Result) {
	if !c.cfg.SelfCheck {
		return
	}
	base := c.method.Run(q, qt)
	if !base.Answers.Equal(res.Answers) {
		panic(fmt.Sprintf("core: self-check failed for %s query %v: cache %v, base %v",
			qt, q, res.Answers, base.Answers))
	}
}
