package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
	"graphcache/internal/mmap"
)

// Cache state persistence: a warm cache is the product of an expensive
// query history, so a production deployment wants to survive restarts.
// WriteState serializes the admitted entries (pending window entries are
// deliberately excluded — they have not passed admission control);
// ReadState and RestoreStateLazy restore them into a cache built over the
// SAME dataset, since answer sets are stored as dataset positions. The
// cache only holds derived state Method M can always recompute, so one
// format is enough: a file the reader refuses is a cold start, never an
// outage.
//
// The format ("GCS3") is binary and mmap-friendly: a fixed-size header, a
// fixed-size per-entry INDEX section and a variable BODY section, so a
// restore can consume the index — and everything hit detection needs —
// without touching the bodies at all:
//
//	header (64 bytes, little-endian):
//	  [0,4)    magic "GCS3"
//	  [4,8)    version (uint32, = 3)
//	  [8,16)   dataset size (uint64) — must equal the restoring cache's
//	  [16,24)  dataset epoch at write (int64) — diagnostic only: epochs
//	           restart with the process, so inequality is normal
//	  [24,32)  entry count (uint64)
//	  [32,40)  body section offset (uint64) = 64 + 136·entryCount
//	  [40,48)  file size (uint64)
//	  [48,56)  FNV-1a of the index section (uint64)
//	  [56,64)  FNV-1a of header bytes [0,56) (uint64)
//
//	index record (136 bytes per entry, little-endian):
//	  [0,8)     graph fingerprint (uint64)
//	  [8,12)    query type (uint32)
//	  [12,16)   base candidates |C_M| (uint32)
//	  [16,72)   ftv.FeatureVector (fixed 56-byte codec, internal/ftv)
//	  [72,80)   hits (int64)
//	  [80,88)   saved tests (float64 bits)
//	  [88,96)   saved cost ns (float64 bits)
//	  [96,104)  absolute offset of the entry's body (uint64)
//	  [104,112) graph byte length (uint64)
//	  [112,120) answer byte length (uint64)
//	  [120,128) FNV-1a of the graph bytes (uint64)
//	  [128,136) FNV-1a of the answer bytes (uint64)
//
//	body, per entry, contiguous and in index order:
//	  graph in the text codec (internal/graph), then the answer set in
//	  the bitset binary container encoding (internal/bitset) — the set's
//	  NATIVE container (sparse/run/dense tag + payload), so a round-trip
//	  preserves the adaptive compression instead of re-encoding index
//	  lists.
//
// Corruption detection is all-or-nothing: the header checksum covers the
// section geometry, the index checksum covers every record, record
// offsets must tile the body section exactly to the recorded file size,
// and each graph and answer blob carries its own checksum — a single
// flipped or truncated byte anywhere fails the restore with a descriptive
// error and leaves the cache untouched. Recency/insertion ticks are reset
// on load (the new process has its own clock); utility counters survive.
// Signatures, feature summaries and the hit index are rebuilt from the
// parsed graphs, never trusted from disk.
//
// # Lazy restore
//
// RestoreStateLazy reads the header, index and graph blobs eagerly, so
// admission, feature-index rebuild and hit detection work immediately,
// but leaves every ANSWER body in the file (mmapped on Unix via
// internal/mmap, plain pread elsewhere). An entry's answer state is
// published as a PENDING body (answerState with set nil); the first
// loadAnswers faults the body in through the same decoder an eager
// restore uses (lazyBody.decode), then publishes it through the cell's
// CAS — lock-free, so fault-in is legal on the query path. A faulted set
// reaches the intern pool at the owning shard's next true-up
// (rechargeLocked).
//
// Dataset mutations between restore and fault-in stay exact: removals
// append the tombstoned id to the pending state's drop list (applied
// after decode), and AddGraph faults every pending body in before it
// changes the dataset, then extends it like any other entry. A body that
// fails verification at fault-in time panics: the restore-time
// validation accepted the file, so the backing file was corrupted or
// truncated AFTER restore, and no exact answer can be produced (the
// kernel never returns approximate answers — the same contract as the
// SelfCheck panic).

const (
	stateMagic     = "GCS3"
	stateVersion   = 3
	stateHeaderLen = 64
	stateIndexLen  = 136

	// retiredMagic opens every file in the retired v2 text format, which
	// no reader accepts any more; it is recognized only to say so.
	retiredMagic = "gcstate "
)

// fnv1a is the 64-bit FNV-1a hash of data — the checksum used by every
// snapshot section. Not cryptographic: it detects corruption, not
// tampering.
func fnv1a(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// stateSource is one open snapshot backing a restore: the random-access
// reader (an mmap.File for RestoreStateLazy, an in-memory buffer for
// ReadState), plus the Monitor the fault counter reports to. For a lazy
// restore the source must stay open for the cache's lifetime — Close
// only after the cache is done (or after a later WriteState materialized
// everything).
type stateSource struct {
	r      io.ReaderAt
	size   int64
	closer io.Closer
	mon    *Monitor
}

// Close releases the backing reader (a no-op for in-memory sources).
func (s *stateSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

func newMemStateSource(data []byte) *stateSource {
	return &stateSource{r: bytes.NewReader(data), size: int64(len(data))}
}

// lazyBody locates one entry's answer set inside a snapshot. Eager
// restores decode it on the spot; lazy restores publish it as a pending
// answer state. Immutable after publication (a removal publishes a fresh
// lazyBody via withDrop — see RemoveGraph); the whole struct is part of
// the COW answerState.
type lazyBody struct {
	src    *stateSource
	off    int64
	length int64
	sum    uint64
	// cap is the answer set's capacity: the dataset size at write time
	// (== at restore time; AddGraph faults the body in before the id
	// space grows).
	cap int
	// drops are ids tombstoned AFTER the snapshot was written (at restore
	// time: the complement of the live mask; afterwards: appended by
	// RemoveGraph), cleared from the decoded set at fault-in.
	drops []int
}

// withDrop returns a copy of b with gid appended to the drop list. The
// receiver is never mutated — it may be published.
func (b *lazyBody) withDrop(gid int) *lazyBody {
	nb := *b
	nb.drops = append(append([]int(nil), b.drops...), gid)
	return &nb
}

// decode reads, verifies and decodes the body into an owned set, drops
// NOT applied: read, checksum, container decode, no trailing bytes, the
// recorded capacity. The one answer-body decoder — eager restore returns
// its error, lazy fault-in panics on it.
func (b *lazyBody) decode() (*bitset.Set, error) {
	buf := make([]byte, b.length)
	if err := readFullAt(b.src.r, buf, b.off, "answer body"); err != nil {
		return nil, err
	}
	if fnv1a(buf) != b.sum {
		return nil, stateError("answer body at offset %d: checksum mismatch", b.off)
	}
	set, n, err := bitset.FromBinary(buf)
	if err != nil {
		return nil, stateError("answer body at offset %d: %v", b.off, err)
	}
	if n != len(buf) {
		return nil, stateError("answer body at offset %d: %d trailing bytes", b.off, len(buf)-n)
	}
	if set.Len() != b.cap {
		return nil, stateError("answer body at offset %d: capacity %d, want %d", b.off, set.Len(), b.cap)
	}
	return set, nil
}

// materialize decodes the body with drops applied. Panics on a decode
// failure: restore validated this file, so a mismatch means the backing
// file changed underneath a live lazy cache — no exact answer exists
// (see the format comment).
func (b *lazyBody) materialize() *bitset.Set {
	set, err := b.decode()
	if err != nil {
		panic(fmt.Sprintf("%v (snapshot file corrupted or truncated since restore)", err))
	}
	if len(b.drops) == 0 {
		return set
	}
	for _, gid := range b.drops {
		if gid < set.Len() {
			set.Remove(gid)
		}
	}
	// The drop-adjusted set is owned until published; re-encode it into
	// its smallest container like every publication point does.
	set.Compact()
	return set
}

// faultAnswers materializes a pending answer state and publishes it
// through the cell's CAS, returning the resulting state. Lock-free; safe
// to race with other faulters (first publish wins, the loser re-reads)
// and with RemoveGraph's drop-list republish (the CAS fails against the
// superseded pending state and the retry sees the new drop list).
func (e *Entry) faultAnswers(st *answerState) *answerState {
	for {
		b := st.body
		next := &answerState{set: b.materialize()}
		if e.ans.p.CompareAndSwap(st, next) {
			if b.src.mon != nil {
				b.src.mon.stateBodyFaults.Add(1)
			}
			return next
		}
		st = e.ans.p.Load()
		if st.body == nil {
			return st
		}
	}
}

// WriteState serializes the cache's admitted entries to w. It takes the
// read side of the dataset mutex (the recorded answer ids must belong to
// one dataset snapshot) plus policyMu (the utility fields it records are
// mutated under it) plus every shard lock, so the written state is one
// consistent snapshot even under concurrent queries. Every answer set is
// exact at the header's dataset size (on a lazily restored cache writing
// faults every remaining body in — the new snapshot must not depend on
// the old backing file). Answer sets are written in their native
// containers, so save→restore preserves the adaptive compression
// byte-for-byte.
//
//gclint:acquires dsMu policyMu shard
//gclint:pins dataset
//gclint:deterministic
func (c *Cache) WriteState(w io.Writer) error {
	c.dsMu.RLock()
	defer c.dsMu.RUnlock()
	view := c.method.View()
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.lockAll()
	defer c.unlockAll()

	all := c.gatherLocked()
	index := make([]byte, 0, len(all)*stateIndexLen)
	var body []byte
	bodyOff := uint64(stateHeaderLen + len(all)*stateIndexLen)
	var gbuf bytes.Buffer
	for _, e := range all {
		set := e.Answers()
		gbuf.Reset()
		if err := graph.WriteGraph(&gbuf, e.Graph); err != nil {
			return err
		}
		gb := gbuf.Bytes()
		entryOff := bodyOff + uint64(len(body))
		body = append(body, gb...)
		ansStart := len(body)
		body = set.AppendBinary(body)
		ab := body[ansStart:]

		index = binary.LittleEndian.AppendUint64(index, uint64(e.Fingerprint))
		index = binary.LittleEndian.AppendUint32(index, uint32(e.Type))
		index = binary.LittleEndian.AppendUint32(index, uint32(e.BaseCandidates))
		index = e.FV.AppendBinary(index)
		index = binary.LittleEndian.AppendUint64(index, uint64(e.Hits))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(e.SavedTests))
		index = binary.LittleEndian.AppendUint64(index, math.Float64bits(e.SavedCostNs))
		index = binary.LittleEndian.AppendUint64(index, entryOff)
		index = binary.LittleEndian.AppendUint64(index, uint64(len(gb)))
		index = binary.LittleEndian.AppendUint64(index, uint64(len(ab)))
		index = binary.LittleEndian.AppendUint64(index, fnv1a(gb))
		index = binary.LittleEndian.AppendUint64(index, fnv1a(ab))
	}

	hdr := make([]byte, 0, stateHeaderLen)
	hdr = append(hdr, stateMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, stateVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(view.Size()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(view.Epoch()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(all)))
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff)
	hdr = binary.LittleEndian.AppendUint64(hdr, bodyOff+uint64(len(body)))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(index))
	hdr = binary.LittleEndian.AppendUint64(hdr, fnv1a(hdr))

	bw := bufio.NewWriter(w)
	for _, sec := range [][]byte{hdr, index, body} {
		if _, err := bw.Write(sec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadState restores a snapshot written by WriteState into the cache,
// replacing its current contents — eagerly: every answer body is read,
// verified and decoded before anything is installed. The cache's dataset
// size must match the recorded one; anything else indicates the state
// belongs to a different deployment.
//
// Restores are all-or-nothing: the entire snapshot is validated before
// the first lock is taken, so a truncated or corrupt state file fails
// with a descriptive error and leaves the cache exactly as it was
// (empty, when the load happens at boot). On success the feature index is
// rebuilt before the locks drop.
func (c *Cache) ReadState(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading state: %w", err)
	}
	return c.readState(newMemStateSource(data), false)
}

// RestoreStateLazy restores a snapshot from path in lazy mode: the
// header, index and graphs load now (hit detection is immediately live),
// answer bodies fault in on first access. The returned closer owns the
// backing file (mmapped where the platform supports it) and must stay
// open for the cache's lifetime; closing it while unfaulted entries
// remain makes their first access panic. The restore itself is
// all-or-nothing, like ReadState.
func (c *Cache) RestoreStateLazy(path string) (io.Closer, error) {
	f, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	src := &stateSource{r: f, size: f.Size(), closer: f}
	if err := c.readState(src, true); err != nil {
		f.Close()
		return nil, err
	}
	return src, nil
}

// stateError builds a restore error.
func stateError(format string, args ...any) error {
	return fmt.Errorf("core: state: %s", fmt.Sprintf(format, args...))
}

// readFullAt reads exactly len(p) bytes at off, mapping a short read to
// a truncation error. On a short read p still holds the bytes that were
// available.
func readFullAt(r io.ReaderAt, p []byte, off int64, what string) error {
	n, err := r.ReadAt(p, off)
	if n < len(p) {
		if err == nil || err == io.EOF {
			return stateError("%s truncated: %d of %d bytes at offset %d", what, n, len(p), off)
		}
		return stateError("reading %s at offset %d: %v", what, off, err)
	}
	return nil
}

// readState parses and restores a snapshot from src, eagerly or lazily.
// Validation mirrors the writer exactly (see the format comment); nothing
// is installed until the whole snapshot — in lazy mode: header, index and
// every graph blob — verified.
//
//gclint:acquires dsMu policyMu shard
//gclint:pins dataset
func (c *Cache) readState(src *stateSource, lazy bool) error {
	c.dsMu.RLock()
	defer c.dsMu.RUnlock()
	view := c.method.View()

	hdr := make([]byte, stateHeaderLen)
	err := readFullAt(src.r, hdr, 0, "header")
	// The retired text format is named before any length check, so even a
	// file shorter than a header says why it was refused. A short read
	// leaves zeros past the data, which can never complete the prefix.
	if bytes.HasPrefix(hdr, []byte(retiredMagic)) {
		return stateError("file is in the retired v2 text format, which is no longer readable; re-save the cache to write a GCS3 snapshot")
	}
	if err != nil {
		return err
	}
	if string(hdr[:4]) != stateMagic {
		return stateError("bad magic %q", hdr[:4])
	}
	if got, want := fnv1a(hdr[:56]), binary.LittleEndian.Uint64(hdr[56:]); got != want {
		return stateError("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != stateVersion {
		return stateError("unsupported state version %d (want %d)", v, stateVersion)
	}
	dsSize64 := binary.LittleEndian.Uint64(hdr[8:])
	entryCount := binary.LittleEndian.Uint64(hdr[24:])
	bodyOff := binary.LittleEndian.Uint64(hdr[32:])
	fileSize := binary.LittleEndian.Uint64(hdr[40:])
	indexSum := binary.LittleEndian.Uint64(hdr[48:])
	if dsSize64 != uint64(view.Size()) {
		return stateError("state is for a %d-graph dataset, cache has %d", dsSize64, view.Size())
	}
	dsSize := int(dsSize64)
	if fileSize != uint64(src.size) {
		return stateError("file size %d, header declares %d", src.size, fileSize)
	}
	if entryCount > (fileSize-stateHeaderLen)/stateIndexLen+1 ||
		bodyOff != stateHeaderLen+entryCount*stateIndexLen || bodyOff > fileSize {
		return stateError("section geometry: %d entries, body at %d, file size %d", entryCount, bodyOff, fileSize)
	}

	idx := make([]byte, bodyOff-stateHeaderLen)
	if err := readFullAt(src.r, idx, stateHeaderLen, "index"); err != nil {
		return err
	}
	if fnv1a(idx) != indexSum {
		return stateError("index checksum mismatch")
	}

	// Ids tombstoned since the snapshot was written must be masked out of
	// every restored set. Eager restores mask with the live set directly;
	// lazy restores carry the tombstones as a drop list applied at
	// fault-in (the live mask's capacity grows with later additions, but
	// the drop list stays valid forever).
	var drops []int
	if lazy && view.LiveCount() != view.Size() {
		live := view.Live()
		for i := 0; i < dsSize; i++ {
			if !live.Contains(i) {
				drops = append(drops, i)
			}
		}
	}
	src.mon = &c.mon

	entries := make([]*Entry, 0, entryCount)
	expectOff := bodyOff
	for i := uint64(0); i < entryCount; i++ {
		rec := idx[i*stateIndexLen : (i+1)*stateIndexLen]
		fp := binary.LittleEndian.Uint64(rec[0:])
		qt := binary.LittleEndian.Uint32(rec[8:])
		bc := binary.LittleEndian.Uint32(rec[12:])
		fv, err := ftv.FeatureVectorFromBinary(rec[16:72])
		if err != nil {
			return stateError("entry %d: %v", i, err)
		}
		hits := int64(binary.LittleEndian.Uint64(rec[72:]))
		savedTests := math.Float64frombits(binary.LittleEndian.Uint64(rec[80:]))
		savedCost := math.Float64frombits(binary.LittleEndian.Uint64(rec[88:]))
		entryOff := binary.LittleEndian.Uint64(rec[96:])
		graphLen := binary.LittleEndian.Uint64(rec[104:])
		ansLen := binary.LittleEndian.Uint64(rec[112:])
		graphSum := binary.LittleEndian.Uint64(rec[120:])
		ansSum := binary.LittleEndian.Uint64(rec[128:])

		if qt != uint32(ftv.Subgraph) && qt != uint32(ftv.Supergraph) {
			return stateError("entry %d: unknown query type %d", i, qt)
		}
		if hits < 0 {
			return stateError("entry %d: negative hit count %d", i, hits)
		}
		if math.IsNaN(savedTests) || math.IsInf(savedTests, 0) || savedTests < 0 ||
			math.IsNaN(savedCost) || math.IsInf(savedCost, 0) || savedCost < 0 {
			return stateError("entry %d: implausible utility %g/%g", i, savedTests, savedCost)
		}
		// Records must tile the body section exactly: offsets are derived,
		// not trusted, so no record can alias or skip another's bytes.
		if entryOff != expectOff {
			return stateError("entry %d: body offset %d, want %d", i, entryOff, expectOff)
		}
		if graphLen > fileSize || ansLen > fileSize || expectOff+graphLen+ansLen > fileSize {
			return stateError("entry %d: body [%d,+%d+%d) exceeds file size %d", i, entryOff, graphLen, ansLen, fileSize)
		}
		expectOff += graphLen + ansLen

		gb := make([]byte, graphLen)
		if err := readFullAt(src.r, gb, int64(entryOff), fmt.Sprintf("entry %d graph", i)); err != nil {
			return err
		}
		if fnv1a(gb) != graphSum {
			return stateError("entry %d: graph checksum mismatch", i)
		}
		gs, err := graph.ReadAll(bytes.NewReader(gb))
		if err != nil {
			return stateError("entry %d: graph: %v", i, err)
		}
		if len(gs) != 1 {
			return stateError("entry %d: want one graph, got %d", i, len(gs))
		}
		// Signatures are rebuilt from the parsed graph, never trusted from
		// disk; the recorded fingerprint and feature vector must then agree
		// with the rebuilt ones, or the index and body sections describe
		// different graphs.
		sig := c.signatureOf(gs[0])
		if uint64(sig.fp) != fp {
			return stateError("entry %d: fingerprint mismatch (index %#x, graph %#x)", i, fp, uint64(sig.fp))
		}
		if sig.fv != fv {
			return stateError("entry %d: feature vector mismatch between index and graph", i)
		}

		body := &lazyBody{src: src, off: int64(entryOff + graphLen), length: int64(ansLen), sum: ansSum, cap: dsSize}
		var e *Entry
		if lazy {
			body.drops = drops
			e = entryShell(0, gs[0], ftv.QueryType(qt), int(bc), sig, 0)
			e.ans.p.Store(&answerState{body: body})
		} else {
			set, err := body.decode()
			if err != nil {
				return err
			}
			set.And(view.Live())
			e = entryFromSig(0, gs[0], ftv.QueryType(qt), set, int(bc), sig, 0)
		}
		e.Hits = hits
		e.SavedTests = savedTests
		e.SavedCostNs = savedCost
		entries = append(entries, e)
	}
	if expectOff != fileSize {
		return stateError("body section ends at %d, file size %d", expectOff, fileSize)
	}

	c.replaceEntries(entries)
	return nil
}

// replaceEntries installs entries as the cache's entire content — the
// commit phase of every restore. Stop-the-world: policyMu plus every
// shard write lock, so no query observes a half-replaced cache and every
// shard's pending window is cleared. Caller holds the read side of dsMu
// (the entries' answer sets must stay exact for the pinned dataset
// snapshot through the install).
//
//gclint:acquires policyMu shard
func (c *Cache) replaceEntries(entries []*Entry) {
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.lockAll()
	defer c.unlockAll()
	for _, sh := range c.shards {
		sh.entries = sh.entries[:0]
		sh.byFP = make(map[graph.Fingerprint][]*Entry)
		sh.memBytes = 0
		sh.window = sh.window[:0]
	}
	// The shards were cleared directly, bypassing removeLocked: reset the
	// residency account to match before insertLocked re-adds the restored
	// entries (a warm-cache restore would otherwise double-count forever).
	c.res.entries.Store(0)
	c.res.bytes.Store(0)
	// The intern pool's references died with the cleared entries; empty it
	// so the restored entries re-intern from scratch (insertLocked below).
	c.pool.reset()
	tick := c.tick.Load()
	for _, e := range entries {
		e.ID = c.newID()
		e.InsertedAt = tick
		e.LastUsed = tick
		c.shardFor(e.Fingerprint).insertLocked(e)
	}
	all := c.gatherLocked()
	if excess := len(all) - c.cfg.Capacity; excess > 0 {
		c.evictLocked(all, excess)
	}
	c.republishAllLocked()
}
