package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

func TestStateRoundTrip(t *testing.T) {
	dataset := testDataset(71, 25)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	src, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	var queries []gen.Query
	for i := 0; i < 12; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%5)
		queries = append(queries, gen.Query{G: q, Type: ftv.Subgraph})
		if _, err := src.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if src.Len() == 0 {
		t.Fatal("no admitted entries to persist")
	}

	var buf bytes.Buffer
	if err := src.WriteState(&buf); err != nil {
		t.Fatal(err)
	}

	dst, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() {
		t.Fatalf("restored %d entries, want %d", dst.Len(), src.Len())
	}

	// Every admitted query must now exact-hit on the restored cache with
	// identical answers.
	srcEntries := src.Entries()
	for _, e := range srcEntries {
		res, err := dst.Execute(e.Graph, e.Type)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ExactHit {
			t.Fatalf("restored cache missed entry %d", e.ID)
		}
		if !res.Answers.Equal(e.Answers()) {
			t.Fatalf("restored answers differ for entry %d", e.ID)
		}
	}
	// Utility counters survive the round trip: every restored entry's hit
	// count is at least its persisted value (the exact-hit loop above only
	// adds).
	for _, d := range dst.Entries() {
		for _, s := range srcEntries {
			if s.Fingerprint == d.Fingerprint && d.Hits < s.Hits {
				t.Fatalf("entry hit counter shrank through persistence: %d < %d", d.Hits, s.Hits)
			}
		}
	}
}

func TestStateRejectsMismatchedDataset(t *testing.T) {
	datasetA := testDataset(73, 10)
	datasetB := testDataset(74, 12)
	a, err := New(ftv.NewGGSXMethod(datasetA, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(ftv.NewGGSXMethod(datasetB, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadState(&buf); err == nil {
		t.Error("mismatched dataset size should be rejected")
	}
}

func TestStateRejectsGarbage(t *testing.T) {
	dataset := testDataset(75, 5)
	c, err := New(ftv.NewGGSXMethod(dataset, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"",
		"not a header\n",
		"gcstate 99 5\n",
		"gcstate 1 5\nanswers 1 2\n", // version-1 states are refused
		"gcstate 1 5\nentry 0 1 0 0 0\nanswers 900\n",
		"gcstate 1 5\nentry 0 x 0 0 0\n",
		"gcstate 2 5 0\n",                                        // missing end trailer
		"gcstate 2 5 1\nend\n",                                   // fewer entries than declared
		"gcstate 2 5 1\nentry 9 2 1 0 0 0 0\n",                   // unknown query type
		"gcstate 2 5 1\nentry 0 2 1 0 0 0 0\nanswers 2 1\nend\n", // answers count mismatch
	}
	for i, in := range cases {
		if err := c.ReadState(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage state accepted", i)
		}
		if c.Len() != 0 {
			t.Fatalf("case %d: failed restore left %d entries behind", i, c.Len())
		}
	}

	// Files in the retired v2 text format are refused by both readers with
	// an error that names the format, whatever their length — including
	// inputs shorter than a GCS3 header.
	retired := []string{
		"gcstate ",
		"gcstate 1 5\nentry 0 1 0 0 0\n",
		"gcstate 2 5 0\nend\n",
		"gcstate 2 5 1\nentry 0 2 1 0 0 0 0\nanswers 1 3\nt # 0\nv 0 1\nv 1 2\ne 0 1\nend\n",
	}
	for _, in := range retired {
		if err := c.ReadState(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "retired v2 text format") {
			t.Errorf("ReadState(%q): want the retired-format error, got %v", in, err)
		}
		path := filepath.Join(t.TempDir(), "state")
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		closer, err := c.RestoreStateLazy(path)
		if err == nil {
			closer.Close()
		}
		if err == nil || !strings.Contains(err.Error(), "retired v2 text format") {
			t.Errorf("RestoreStateLazy(%q): want the retired-format error, got %v", in, err)
		}
		if c.Len() != 0 {
			t.Fatalf("retired-format input %q left %d entries behind", in, c.Len())
		}
	}
}

// validState builds a warm cache and returns its serialized state along
// with the cache (for content comparisons).
func validState(t *testing.T, seed int64) ([]byte, *Cache) {
	t.Helper()
	dataset := testDataset(seed, 20)
	method := ftv.NewGGSXMethod(dataset, 3)
	cfg := DefaultConfig()
	cfg.Window = 2
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	for i := 0; i < 10; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() < 3 {
		t.Fatalf("only %d admitted entries; the restore tests need more", c.Len())
	}
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c
}

// A failed restore into a WARM cache must leave its previous contents
// untouched (all-or-nothing semantics) — whether the snapshot is cut
// short or fails only at its last answer body.
func TestStateFailedRestoreLeavesWarmCacheIntact(t *testing.T) {
	state, warm := validState(t, 85)
	before := warm.Entries()
	if len(before) == 0 {
		t.Fatal("warm cache empty")
	}
	ranges := ansRanges(state)
	flipped := append([]byte(nil), state...)
	flipped[ranges[len(ranges)-1][0]] ^= 0x01 // the last entry's answer body

	for name, bad := range map[string][]byte{
		"truncated":    state[:len(state)/2],
		"flipped-body": flipped,
	} {
		if err := warm.ReadState(bytes.NewReader(bad)); err == nil {
			t.Fatalf("%s: corrupt state accepted", name)
		}
		after := warm.Entries()
		if len(after) != len(before) {
			t.Fatalf("%s: failed restore changed the cache: %d entries, had %d", name, len(after), len(before))
		}
		for i, e := range after {
			if e.ID != before[i].ID || e.Fingerprint != before[i].Fingerprint || !e.Answers().Equal(before[i].Answers()) {
				t.Fatalf("%s: entry %d changed by a failed restore", name, i)
			}
		}
		// The index still mirrors the surviving contents.
		indexed := 0
		for _, part := range warm.summariesView() {
			indexed += len(part)
		}
		if indexed != len(before) {
			t.Fatalf("%s: index has %d entries after failed restore, cache %d", name, indexed, len(before))
		}
	}
}

// The state format records answer sets at the dataset size they were
// written at, so a state written before dataset additions must be
// refused: restoring it would leave its entries blind to the added
// graphs. The refusal names the dataset.
func TestRestoreRefusesStateFromBeforeAdditions(t *testing.T) {
	dataset := testDataset(131, 10)
	extra := testDataset(132, 3)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.Shards = 1
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(133)), dataset[1], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	for _, g := range extra {
		if _, err := c.AddGraph(g); err != nil {
			t.Fatal(err)
		}
	}
	err := c.ReadState(bytes.NewReader(state.Bytes()))
	if err == nil {
		t.Fatal("ReadState accepted a state file from before dataset additions")
	}
	if !strings.Contains(err.Error(), "dataset") {
		t.Fatalf("refusal should blame the dataset size, got: %v", err)
	}
}

// A same-size restore (removals only since the write) is exact, and a
// later AddGraph extends the restored entries like any others.
func TestSameSizeRestoreThenAddGraphIsExact(t *testing.T) {
	dataset := testDataset(131, 10)
	c := testCache(t, dataset, func(cfg *Config) {
		cfg.Window = 1
		cfg.Shards = 1
	})
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(133)), dataset[1], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var state bytes.Buffer
	if err := c.WriteState(&state); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadState(bytes.NewReader(state.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGraph(dataset[1]); err != nil { // q embeds in it by construction
		t.Fatal(err)
	}
	if err := answerCapacityErr(c); err != nil {
		t.Fatal(err)
	}
	res, err := c.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Method().Run(q, ftv.Subgraph).Answers; !res.Answers.Equal(want) {
		t.Fatalf("restored entry diverges after post-restore addition: %v vs %v", res.Answers, want)
	}
}

// An answer body can be corrupted into another well-formed set — a
// flipped dense bit, a sparse index moved up by one — that only its
// checksum tells apart. Both restore paths run the one body decoder, so
// both must refuse it: eager restore with an error, lazy fault-in with a
// panic.
func TestStateAnswerChecksumCatchesWellFormedCorruption(t *testing.T) {
	state, src := validState(t, 87)
	off := -1
	for _, r := range ansRanges(state) {
		body := state[r[0] : r[0]+r[1]]
		count := binary.LittleEndian.Uint64(body[9:])
		if count == 0 {
			continue
		}
		if body[0] == 1 { // dense: bit 0 of word 0 is always in range
			off = int(r[0]) + 17
			break
		}
		last := 17 + 4*int(count-1)
		v := binary.LittleEndian.Uint32(body[last:])
		if body[0] == 0 && v%2 == 0 && uint64(v+1) < binary.LittleEndian.Uint64(body[1:]) {
			off = int(r[0]) + last // sparse: v → v+1 stays sorted and in range
			break
		}
	}
	if off < 0 {
		t.Fatal("no answer body admits a well-formed corruption")
	}
	bad := append([]byte(nil), state...)
	bad[off] ^= 0x01

	cfg := DefaultConfig()
	cfg.Window = 2
	eager := MustNew(src.Method(), cfg)
	if err := eager.ReadState(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("eager restore: want an answer checksum error, got %v", err)
	}
	if eager.Len() != 0 {
		t.Fatalf("rejected restore left %d entries behind", eager.Len())
	}

	lazy := MustNew(src.Method(), cfg)
	if err := lazy.readState(newMemStateSource(bad), true); err != nil {
		t.Fatalf("lazy restore reads no answer bodies, yet failed: %v", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "checksum mismatch") {
			t.Fatalf("fault-in of the corrupted body: want a checksum panic, got %v", r)
		}
	}()
	for _, e := range lazy.Entries() {
		e.Answers()
	}
}

func TestStateCapacityEnforcedOnLoad(t *testing.T) {
	dataset := testDataset(76, 20)
	method := ftv.NewGGSXMethod(dataset, 3)
	bigCfg := DefaultConfig()
	bigCfg.Capacity = 50
	bigCfg.Window = 1
	big, err := New(method, bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 10; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i%len(dataset)], 3+i%4)
		if _, err := big.Execute(q, ftv.Subgraph); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := big.WriteState(&buf); err != nil {
		t.Fatal(err)
	}

	smallCfg := DefaultConfig()
	smallCfg.Capacity = 3
	small, err := New(method, smallCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.ReadState(&buf); err != nil {
		t.Fatal(err)
	}
	if small.Len() > 3 {
		t.Errorf("restored cache exceeds capacity: %d", small.Len())
	}
}

func TestStateDirectedEntries(t *testing.T) {
	dataset := circuitDataset(78, 15)
	method := ftv.NewGGSXMethod(dataset, 2)
	cfg := DefaultConfig()
	cfg.Window = 1
	c, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	q := gen.ExtractConnectedSubgraph(rng, dataset[0], 4)
	if _, err := c.Execute(q, ftv.Subgraph); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := New(method, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadState(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := restored.Execute(q, ftv.Subgraph)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ExactHit {
		t.Error("directed entry lost through persistence")
	}
}
