// Package core implements the GraphCache (GC) kernel: a semantic cache of
// executed subgraph/supergraph queries that expedites future queries by
// harnessing exact-match, subgraph ("sub case") and supergraph ("super
// case") cache hits.
//
// # Semantics
//
// The cache sits on top of a Method M (package ftv): a filter producing a
// candidate set C_M plus a sub-iso verifier. For a new query q the kernel:
//
//  1. looks for an exact-match hit (an isomorphic cached query of the same
//     type) and, if found, serves the cached answer with zero dataset
//     sub-iso tests;
//  2. otherwise runs M's filter to obtain C_M, then detects
//     - sub-case hits: cached queries h with q ⊑ h, and
//     - super-case hits: cached queries h with h ⊑ q;
//  3. turns hits into savings. For a subgraph query
//     (A(q) = {G : q ⊑ G}):
//     - a sub-case hit gives A(h) ⊆ A(q): every graph in A(h) is an
//     answer for sure (set S, Figure 3(c)), skipping its test;
//     - a super-case hit gives A(q) ⊆ A(h): graphs outside A(h) are
//     non-answers for sure (set S', Figure 3(d)).
//     For a supergraph query (A(q) = {G : G ⊑ q}) the roles flip:
//     super-case hits deliver S, sub-case hits deliver S'.
//  4. verifies only C = (C_M ∩ ⋂ pruning-hit answers) \ S and returns
//     A = R ∪ S, where R are the verification survivors (Figure 3(f)–(h)).
//
// Correctness: members of S are answers by transitivity of subgraph
// isomorphism; members of S' are non-answers by contraposition; everything
// else is verified. Hence no false positives and no false negatives —
// property-tested in this package against the uncached Method M.
//
// # Management
//
// Executed queries enter an admission window (Window Manager); at window
// boundaries they are admitted into the cache and, if the cache exceeds
// its capacity, a replacement Policy selects victims (LRU, POP, PIN, PINC,
// HD, and pluggable custom policies per Figure 2(d)). A Statistics
// Monitor/Manager tracks per-query and per-entry utilities, including the
// number of sub-iso tests each cached entry saved (PIN) and their measured
// cost (PINC).
//
// # Hot-path memory discipline
//
// Execute is the kernel's hot path; at throughput-benchmark rates its
// allocation count, not its instruction count, decides how far the
// sharded engine scales (allocations are serialized by the allocator and
// the GC long before any kernel lock contends). The discipline:
//
//   - Per-query scratch comes from sync.Pools, never fresh: execScratch
//     (candidate-id, cost-sample, verdict and hit-credit slices, cache.go),
//     featScratch (path-feature counting, features.go) and the VF2 state
//     pool (internal/iso). Pooled objects are reset — never zero-filled by
//     reallocation — and anything referencing caller data is nil'd before
//     Put so the pool never pins graphs alive.
//
//   - Bitsets that are mathematically all-zero stay lazy (internal/bitset:
//     a nil words slice means "all clear"), so the common empty
//     Excluded/Survivors sets on exact hits cost O(1), not O(dataset).
//     Set algebra consumes its inputs where ownership allows: Execute
//     clones a candidate set only when a pruning hit actually forces a
//     divergent copy, and a Result's mathematically-equal fields alias one
//     set (see Result).
//
//   - Iteration over set intersections/differences is word-parallel and
//     callback-based (ForEachAnd/ForEachAndNot) — no materialized index
//     slices on the hot path; AppendIndices reuses caller buffers.
//
//   - Immutable graphs memoize their derived summaries (sorted
//     label-degree keys, the pattern-side VF2 search plan, 64-bit
//     adjacency masks for targets of at most 64 vertices, label vector,
//     WL fingerprint) behind atomic pointers (internal/graph), so
//     repeated probes of the same graph are allocation-free; racing
//     computations produce identical values and the loser's copy is
//     garbage, which keeps the memo lock-free.
//
//   - What MAY allocate: the Result and its owned sets (they outlive the
//     call), admission bookkeeping on a miss (the entry, its feature
//     summary), and slice growth when a candidate set outgrows every
//     previous query's (the grown scratch is kept by the pool, so growth
//     amortizes to zero).
//
//   - Answer sets are adaptive and shared. internal/bitset picks the
//     smallest of three containers per set (sorted-uint32 sparse, run
//     spans, dense words) with automatic migration at container-local
//     thresholds; the read paths dispatch per container pair through
//     stack cursor structs, staying //gclint:noalloc. The container
//     rules: only the OWNER of an unpublished set may mutate or
//     Compact() it — entryFromSig and RemoveGraph's clone do, right
//     before publication; a published set is frozen in whatever
//     container it had (concurrent readers dispatch on its mode tag, so
//     migration on a shared set is a data race by construction).
//     Identical published sets are then interned cache-wide (intern.go):
//     entries acquire a refcounted canonical keyed by content
//     fingerprint, the residency account charges each canonical once,
//     and the pool's leaf mutex is the only lock the sharing costs.
//     Persistence round-trips compact: the GCS3 snapshot stores each
//     set's native container encoding verbatim (bitset
//     AppendBinary/FromBinary), so a restored set comes back in the
//     container it was published with.
//
// The regression fences: BenchmarkExecute* (bench_test.go) report
// allocs/op for the exact-hit, indexed-miss and sub/super-hit classes,
// and alloc_test.go pins hard per-path budgets via testing.AllocsPerRun
// — a returning O(n) clone fails CI, not a profile nobody reads.
// FuzzBitsetOps (internal/bitset) differentially fuzzes every container
// mix against a naive reference, and `gcbench -exp memory` tracks
// bytes/entry against the dense-equivalent baseline.
//
// # Snapshot persistence: the GCS3 binary format
//
// WriteState serializes the cache in the one snapshot format, GCS3
// (version 3), a binary, mmap-friendly layout; ReadState (eager) and
// RestoreStateLazy read it through one reader, readState. A file in the
// retired v2 text format (it opens with "gcstate ") is refused with an
// error that names the format; like any unreadable snapshot it means a
// cold start, since the cache holds only state Method M can recompute.
// All integers are little-endian; every checksum is FNV-1a 64. The layout
// (offsets in bytes):
//
//	header, 64 B:  magic "GCS3" [0,4)   version=3 u32 [4,8)
//	               dsSize u64 [8,16)    dsEpoch i64 [16,24) (diagnostic)
//	               entryCount u64 [24,32)
//	               bodyOff u64 [32,40) = 64 + 136*entryCount
//	               fileSize u64 [40,48) indexSum u64 [48,56)
//	               headerSum u64 [56,64) over bytes [0,56)
//	index, 136 B/entry (fixed size, so record i is addressable without
//	parsing records 0..i-1):
//	               fp u64, queryType u32, baseCandidates u32,
//	               feature vector 56 B (ftv FV codec), hits i64,
//	               savedTests f64, savedCostNs f64,
//	               bodyOff u64, graphLen u64, ansLen u64,
//	               graphSum u64, ansSum u64
//	body:          per entry, contiguous and in index order: the graph
//	               in the text codec (graph.WriteGraph), then the answer
//	               set in its native bitset container encoding
//	               (bitset.AppendBinary — mode tag + capacity + count +
//	               sparse/dense/run payload, so a restore preserves the
//	               writer's container instead of re-deriving it).
//
// Validation is all-or-nothing and covers every byte: headerSum gates
// the header, indexSum gates the whole index section, per-entry
// graphSum/ansSum gate each body segment, and the records must tile the
// body exactly (record i's bodyOff equals the running offset; the final
// offset equals fileSize). Signatures and feature vectors are rebuilt
// from the parsed graphs and cross-checked against the index — never
// trusted from disk. A snapshot from a differently-sized dataset is
// refused (dsSize must equal the current view's id-space size). One
// function, lazyBody.decode, verifies and decodes every answer body
// (read, ansSum, container decode, no trailing bytes, capacity): an
// eager restore returns its error, lazy fault-in panics on it.
//
// # Lazy restore
//
// RestoreStateLazy mmaps the file (internal/mmap; ReadAt fallback where
// unsupported) and restores eagerly EXCEPT the answer bodies: the
// header, index and graph segments are read and fully validated up
// front, so admission, the feature index, and exact/sub/super hit
// detection work immediately, while each entry's answer set faults in
// on its first Answers() call. The rules that keep this exact:
//
//   - An unfaulted entry's answer cell holds a pending answerState whose
//     lazyBody records (source, offset, length, checksum, capacity) plus
//     a drops list — the ids tombstoned since the snapshot was written
//     (dsSize equality proves no ADDS happened; ids are never reused).
//     Fault-in decodes the segment (lazyBody.decode), applies drops
//     (re-Compact()ing a set they changed), and publishes by CAS —
//     fully lock-free. The faulted set reaches the intern pool at the
//     owning shard's next rechargeLocked.
//   - AddGraph materializes every pending body (loadAnswers) while it
//     holds dsMu exclusively, BEFORE the dataset grows, then extends it
//     like any other entry. A pending body therefore never outlives an
//     addition, and its recorded capacity always equals the id space.
//   - RemoveGraph on a pending entry appends to the drops list via a
//     COW lazyBody clone published under the full lock hierarchy; a
//     racing lock-free fault loses the CAS and retries against the new
//     body. Eviction of a pending entry just drops the cell — no I/O.
//   - Body corruption discovered at fault time PANICS (the restore
//     validated the index, so a failing ansSum means the file changed
//     underneath the mapping — there is no caller to return an error
//     to, and serving wrong answers would violate the SelfCheck
//     contract). Whole-file corruption is still rejected error-wise at
//     restore time, all-or-nothing.
//   - The returned io.Closer owns the mapping: Close() after the cache
//     is done faulting (for gcd: save first, then close). Monitor
//     counter StateBodyFaults observes fault-in traffic (/api/stats).
//
// # Machine-checked contracts: the gclint annotation grammar
//
// The locking discipline and the hot-path memory discipline above are
// not prose-only: `make lint` runs the repo's own analyzers
// (cmd/gclint, internal/lint) over every package, driven by `//gclint:`
// comment directives on the declarations themselves. The grammar, by
// example (the example lines are indented so they read as code, not as
// live directives):
//
//	//gclint:hierarchy dsMu policyMu shard  (on Cache: the lock order)
//	//gclint:lock policyMu     (on a field: this is lock "policyMu" in the hierarchy)
//	//gclint:leaf              (with lock: rank-exempt, but nothing may be acquired under it)
//	//gclint:acquires policyMu shard   (func acquires and releases these internally)
//	//gclint:requires policyMu shard   (func must be called with these held)
//	//gclint:holds shard       (func acquires these and LEAVES them held — lockAll)
//	//gclint:releases shard    (func releases caller-held locks — unlockAll)
//	//gclint:nolocks           (func must not acquire any lock, directly or via callees)
//	//gclint:noalloc           (func must not contain allocating constructs)
//	//gclint:cow               (type: copy-on-write; published values are immutable)
//	//gclint:cowview           (func returns a published COW value; callers must not write it)
//	//gclint:mutates           (method writes its receiver; illegal on published COW values)
//	//gclint:snapshot answers  (on a field/var: an atomically-published snapshot cell)
//	//gclint:loads answers [p] (func loads the cell; p names the instance-carrying
//	                            parameter, defaulting to the method receiver)
//	//gclint:pins dataset      (func is an operation scope: at most one load per
//	                            cell instance; loads in loops are torn snapshots)
//	//gclint:view dataset      (type: values are pinned views of the named cell;
//	                            functions receiving one must not re-load the cell)
//	//gclint:deterministic     (func output must be a deterministic function of its
//	                            inputs, transitively: no unordered map ranges
//	                            without a sorted-key idiom, no time/rand, no
//	                            goroutine spawns, no multi-case selects)
//	//gclint:ctxstrict         (package: context.Background/TODO are diagnostics
//	                            everywhere in the package)
//	//gclint:ignore lockorder -- reason   (waive one finding on this or the next line)
//
// Seven analyzers consume these: lockorder (hierarchy violations, unmet
// requires, acquisition inside nolocks), cowpublish (writes through
// cowview/atomic.Pointer-published values, mutates-calls on them),
// leaflock (any acquisition while a leaf lock is held), noalloc,
// snapshotonce (torn snapshots: a cell loaded twice, in a loop, or fresh
// where a caller already pinned a view), determinism (nondeterminism
// reachable from //gclint:deterministic roots through the call graph) and
// ctxflow (handlers that receive a context and then discard it, or that
// call the context-less sibling of a *Context API pair). Findings are
// build failures; every waiver needs a reason after `--`.
package core

// The kernel is context-strict: root contexts must not be minted inside
// this package — every operation that can block or fan out inherits its
// caller's context, so client disconnects and shutdown deadlines
// propagate into batch execution (see ExecuteAllStreamContext).
//
//gclint:ctxstrict
