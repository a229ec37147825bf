package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"graphcache/internal/bitset"
	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// Cache state persistence: a warm cache is the product of an expensive
// query history, so a production deployment wants to survive restarts.
// WriteState serializes the admitted entries (pending window entries are
// deliberately excluded — they have not passed admission control);
// ReadState restores them into a cache built over the SAME dataset, since
// answer sets are stored as dataset positions.
//
// Two formats exist. WriteState writes the current binary v3 format
// ("GCS3", persist_v3.go): fixed header, fixed-size per-entry index
// records, checksummed variable bodies holding each graph plus its
// answer set in the set's native container encoding — and restores can
// be LAZY, faulting answer bodies in on first use (RestoreStateLazy).
// WriteStateV2 keeps the line-oriented text format below; ReadState
// sniffs the leading magic and accepts either, so v2 files keep
// restoring.
//
// Format v2 (line-oriented, versioned):
//
//	gcstate 2 <dataset-size> <entry-count>
//	entry <type> <vertices> <edges> <baseCandidates> <hits> <savedTests> <savedCostNs>
//	answers <count> <id> <id> ...
//	<graph in the text codec>
//	...
//	end
//
// Version 2 makes corruption detectable everywhere a version-1 file could
// be silently truncated: the header carries the entry count, each entry
// line carries the graph's vertex/edge counts (validated against the
// parsed graph), each answers line carries its id count (ids must be
// strictly increasing — the writer emits sorted Indices(), so any other
// order is corruption), and the stream must close with an "end" trailer.
// Recency/insertion ticks are reset on load (the new process has its own
// clock); utility counters survive. Feature vectors, fingerprints and the
// hit index are rebuilt from the parsed graphs, never trusted from disk.

const stateVersionV2 = 2

// WriteStateV2 serializes the cache's admitted entries to w in the
// legacy text format. It takes the read side of the dataset mutex (the
// recorded answer ids must belong to one dataset snapshot) plus policyMu
// (the utility fields it records are mutated under it) plus every shard
// lock, so the written state is one consistent snapshot even under
// concurrent queries. Entries stale with respect to dataset additions
// (LazyReconcile) are reconciled before serialization — the on-disk
// format carries no epochs, so what it stores must be exact at the
// header's dataset size. Every write is error-checked, and the graph
// codec writes through the same buffered writer as the state lines —
// exactly one writer touches w, so no flush ordering can interleave.
//
//gclint:acquires dsMu policyMu shard
//gclint:pins dataset
//gclint:deterministic
func (c *Cache) WriteStateV2(w io.Writer) error {
	c.dsMu.RLock()
	defer c.dsMu.RUnlock()
	view := c.method.View()
	c.policyMu.Lock()
	defer c.policyMu.Unlock()
	c.lockAll()
	defer c.unlockAll()

	all := c.gatherLocked()
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "gcstate %d %d %d\n", stateVersionV2, view.Size(), len(all)); err != nil {
		return err
	}
	for _, e := range all {
		if _, err := fmt.Fprintf(bw, "entry %d %d %d %d %d %g %g\n",
			e.Type, e.Graph.N(), e.Graph.M(), e.BaseCandidates, e.Hits, e.SavedTests, e.SavedCostNs); err != nil {
			return err
		}
		ids := c.reconciledAnswers(e, view).Indices()
		if _, err := fmt.Fprintf(bw, "answers %d", len(ids)); err != nil {
			return err
		}
		for _, id := range ids {
			if _, err := fmt.Fprintf(bw, " %d", id); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
		if err := graph.WriteGraph(bw, e.Graph); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, "end"); err != nil {
		return err
	}
	return bw.Flush()
}

// stateError builds a line-numbered restore error.
func stateError(line int, format string, args ...any) error {
	return fmt.Errorf("core: state line %d: %s", line, fmt.Sprintf(format, args...))
}

// ReadState restores entries serialized by WriteState (binary v3) or
// WriteStateV2 (text) into the cache, replacing its current contents; the
// leading magic selects the parser. The cache's dataset size must match
// the recorded one; anything else indicates the state belongs to a
// different deployment.
//
// Restores are all-or-nothing: the entire stream is parsed and validated —
// entry counts, per-graph vertex/edge counts, answer-id ranges and
// ordering, checksums and section bounds in v3, the end trailer in v2 —
// before the first lock is taken, so a truncated or corrupt state file
// fails with a descriptive error and leaves the cache exactly as it was
// (empty, when the load happens at boot). On success the feature index is
// rebuilt before the locks drop.
func (c *Cache) ReadState(r io.Reader) error {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(stateMagicV3)); err == nil && string(magic) == stateMagicV3 {
		data, err := io.ReadAll(br)
		if err != nil {
			return fmt.Errorf("core: reading state: %w", err)
		}
		return c.readStateV3(newMemStateSource(data), false)
	}
	return c.readStateV2(br)
}

// readStateV2 parses and restores the v2 text format.
//
//gclint:acquires dsMu policyMu shard
//gclint:pins dataset
func (c *Cache) readStateV2(br *bufio.Reader) error {
	// The read side of the dataset mutex pins the dataset for the whole
	// restore (mutations are excluded; concurrent queries are not — they
	// are fenced by the lock hierarchy below, exactly like before).
	c.dsMu.RLock()
	defer c.dsMu.RUnlock()
	view := c.method.View()
	lineNo := 1
	header, err := br.ReadString('\n')
	if err != nil && header == "" {
		return stateError(lineNo, "reading header: %v", err)
	}
	// The version is checked on its own first, so a file written by a
	// different format version gets the actionable "unsupported version"
	// error rather than a generic header complaint (v1 headers have fewer
	// fields and would fail the full field-count check outright). The
	// header must then consist of EXACTLY the four expected fields —
	// fmt.Sscanf would silently accept trailing junk after the entry
	// count, hiding corruption on the one line that authenticates the
	// rest of the stream.
	hfields := strings.Fields(strings.TrimSpace(header))
	if len(hfields) < 2 || hfields[0] != "gcstate" {
		return stateError(lineNo, "bad header %q", strings.TrimSpace(header))
	}
	version, err := strconv.Atoi(hfields[1])
	if err != nil {
		return stateError(lineNo, "bad header %q", strings.TrimSpace(header))
	}
	if version != stateVersionV2 {
		return stateError(lineNo, "unsupported state version %d (want %d)", version, stateVersionV2)
	}
	if len(hfields) != 4 {
		return stateError(lineNo, "bad header %q: want 4 fields, got %d", strings.TrimSpace(header), len(hfields))
	}
	dsSize, err1 := strconv.Atoi(hfields[2])
	entryCount, err2 := strconv.Atoi(hfields[3])
	if err1 != nil || err2 != nil {
		return stateError(lineNo, "bad header %q", strings.TrimSpace(header))
	}
	if dsSize != view.Size() {
		return stateError(lineNo, "state is for a %d-graph dataset, cache has %d", dsSize, view.Size())
	}
	if entryCount < 0 {
		return stateError(lineNo, "negative entry count %d", entryCount)
	}

	type pending struct {
		qt             ftv.QueryType
		vertices       int
		edges          int
		baseCandidates int
		hits           int64
		savedTests     float64
		savedCost      float64
		answers        []int
		hasAnswers     bool // exactly one answers line per entry
		entryLine      int  // line number of the entry line
		graphStart     int  // line number where the graph text begins
		graphText      strings.Builder
	}
	var items []*pending
	var cur *pending
	sawEnd := false
parse:
	for {
		line, err := br.ReadString('\n')
		if line == "" && err != nil {
			if err == io.EOF {
				break
			}
			return stateError(lineNo+1, "reading state: %v", err)
		}
		lineNo++
		trimmed := strings.TrimSpace(line)
		fields := strings.Fields(trimmed)
		switch {
		case len(fields) == 1 && fields[0] == "end":
			sawEnd = true
			break parse
		case len(fields) > 0 && fields[0] == "entry":
			if len(fields) != 8 {
				return stateError(lineNo, "bad entry line %q: want 8 fields, got %d", trimmed, len(fields))
			}
			cur = &pending{entryLine: lineNo, graphStart: lineNo + 2} // graph follows the answers line
			qt, err1 := strconv.Atoi(fields[1])
			n, err2 := strconv.Atoi(fields[2])
			m, err3 := strconv.Atoi(fields[3])
			bc, err4 := strconv.Atoi(fields[4])
			hits, err5 := strconv.ParseInt(fields[5], 10, 64)
			st, err6 := strconv.ParseFloat(fields[6], 64)
			sc, err7 := strconv.ParseFloat(fields[7], 64)
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || err6 != nil || err7 != nil {
				return stateError(lineNo, "bad entry line %q", trimmed)
			}
			if qt != int(ftv.Subgraph) && qt != int(ftv.Supergraph) {
				return stateError(lineNo, "unknown query type %d", qt)
			}
			if n <= 0 || m < 0 {
				return stateError(lineNo, "implausible graph size %d/%d", n, m)
			}
			cur.qt = ftv.QueryType(qt)
			cur.vertices = n
			cur.edges = m
			cur.baseCandidates = bc
			cur.hits = hits
			cur.savedTests = st
			cur.savedCost = sc
			items = append(items, cur)
		case len(fields) > 0 && fields[0] == "answers":
			if cur == nil {
				return stateError(lineNo, "answers line before entry line")
			}
			if cur.hasAnswers {
				return stateError(lineNo, "duplicate answers line for one entry")
			}
			cur.hasAnswers = true
			if len(fields) < 2 {
				return stateError(lineNo, "answers line without count")
			}
			count, err := strconv.Atoi(fields[1])
			if err != nil || count < 0 {
				return stateError(lineNo, "bad answers count %q", fields[1])
			}
			if got := len(fields) - 2; got != count {
				return stateError(lineNo, "answers line truncated: declared %d ids, found %d", count, got)
			}
			// Ids must be strictly increasing: the writer emits sorted
			// Indices(), so any duplicate or out-of-order id is corruption.
			// Without this check a duplicated id ("answers 2 5 5") passes
			// the declared count yet silently collapses to one bit in
			// FromIndices below.
			prev := -1
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil || id < 0 || id >= dsSize {
					return stateError(lineNo, "bad answer id %q", f)
				}
				if id <= prev {
					return stateError(lineNo, "answer ids not strictly increasing at %q", f)
				}
				prev = id
				cur.answers = append(cur.answers, id)
			}
		default:
			if cur == nil {
				return stateError(lineNo, "graph text before entry line: %q", trimmed)
			}
			cur.graphText.WriteString(line)
		}
		if err == io.EOF {
			break
		}
	}
	if !sawEnd {
		return stateError(lineNo, "state truncated: missing end trailer")
	}
	if len(items) != entryCount {
		return stateError(lineNo, "state truncated: header declares %d entries, found %d", entryCount, len(items))
	}

	entries := make([]*Entry, 0, len(items))
	for _, it := range items {
		if !it.hasAnswers {
			return stateError(it.entryLine, "entry has no answers line")
		}
		gs, err := graph.ReadAll(strings.NewReader(it.graphText.String()))
		if err != nil {
			return stateError(it.graphStart, "entry graph: %v", err)
		}
		if len(gs) != 1 {
			return stateError(it.graphStart, "entry graph: want one graph, got %d", len(gs))
		}
		if gs[0].N() != it.vertices || gs[0].M() != it.edges {
			return stateError(it.graphStart,
				"entry graph truncated: declared %d vertices / %d edges, parsed %d/%d",
				it.vertices, it.edges, gs[0].N(), gs[0].M())
		}
		answers := bitset.FromIndices(dsSize, it.answers)
		// Ids tombstoned since the state was written are masked out: ids
		// are never reused, so the remaining bits are still exact, and the
		// restored entries are stamped with the current epoch.
		answers.And(view.Live())
		e := entryFromSig(0, gs[0], it.qt, answers, it.baseCandidates, c.signatureOf(gs[0]), 0, view.Epoch())
		e.Hits = it.hits
		e.SavedTests = it.savedTests
		e.SavedCostNs = it.savedCost
		entries = append(entries, e)
	}

	c.replaceEntries(entries)
	return nil
}

// replaceEntries installs entries as the cache's entire content — the
// shared commit phase of every restore. Stop-the-world: policyMu plus
// every shard write lock, so no query observes a half-replaced cache and
// every shard's pending window is cleared. Caller holds the read side of
// dsMu (the entries' answer sets must stay exact for the pinned dataset
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
		sh.resetWindowLocked()
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
	// Restored entries are stamped with the current epoch (additions are
	// impossible since the state was written — the id space would have
	// grown, and a size mismatch is refused above — so the stamp can skip
	// nothing), which usually lifts the compaction floor: a restore is a
	// stop-the-world pass like any other.
	c.compactAdditionsLocked()
}
