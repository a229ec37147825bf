package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
)

// Native fuzz target for the snapshot reader. A snapshot is untrusted
// bytes on disk: the parser must never panic, must reject corruption
// all-or-nothing, and anything it accepts must satisfy the cache
// invariants and round-trip. The committed seed corpus under
// testdata/fuzz/FuzzReadSnapshot pins a valid snapshot plus the
// truncation/flip shapes TestV3CorruptionSweep covers; `make ci` runs a
// short -fuzz smoke pass on top of the regression replay.

// fuzzStateMu serializes fuzz executions against the shared fixture
// below (the fuzzing engine may run the seed corpus on parallel
// goroutines; caches are per-execution but the method is shared and
// WriteState/ReadState both walk it).
var fuzzStateMu sync.Mutex

var fuzzStateFixture = sync.OnceValue(func() *ftv.Method {
	return ftv.NewGGSXMethod(testDataset(161, 8), 3)
})

// fuzzStateCache builds a fresh small cache over the shared method.
func fuzzStateCache() *Cache {
	cfg := DefaultConfig()
	cfg.Capacity = 6
	cfg.Window = 1
	cfg.Shards = 1
	return MustNew(fuzzStateFixture(), cfg)
}

// validFuzzSnapshot serializes a warmed cache over the shared fixture —
// the well-formed corpus seed.
func validFuzzSnapshot(tb testing.TB) []byte {
	c := fuzzStateCache()
	rng := rand.New(rand.NewSource(162))
	dataset := c.Method().Dataset()
	for i := 0; i < 3; i++ {
		q := gen.ExtractConnectedSubgraph(rng, dataset[i], 4)
		if _, err := c.Execute(q, ftv.Subgraph); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.WriteState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadSnapshot(f *testing.F) {
	valid := validFuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])   // truncated mid-body
	f.Add(valid[:stateHeaderLen]) // header only
	flipped := append([]byte(nil), valid...)
	flipped[stateHeaderLen+8] ^= 0x01 // one index bit
	f.Add(flipped)
	badVersion := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(badVersion[4:], 99)
	f.Add(badVersion)
	f.Add([]byte("GCS3"))                     // bare magic
	f.Add([]byte("GCS4junkjunkjunkjunkjunk")) // wrong magic

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzStateMu.Lock()
		defer fuzzStateMu.Unlock()
		c := fuzzStateCache()
		if err := c.ReadState(bytes.NewReader(data)); err != nil {
			if c.Len() != 0 || c.Bytes() != 0 {
				t.Fatalf("rejected restore left %d entries / %d bytes behind", c.Len(), c.Bytes())
			}
			return
		}
		if c.Len() > 6 {
			t.Fatalf("restore admitted %d entries past capacity 6", c.Len())
		}
		view := c.Method().View()
		for _, e := range c.Entries() {
			ans := e.Answers()
			if ans.Len() != view.Size() {
				t.Fatalf("entry %d answers sized %d, dataset %d", e.ID, ans.Len(), view.Size())
			}
			if !ans.SubsetOf(view.Live()) {
				t.Fatalf("entry %d answers a tombstoned id", e.ID)
			}
		}
		// Accepted snapshots round-trip through the binary writer.
		var buf bytes.Buffer
		if err := c.WriteState(&buf); err != nil {
			t.Fatalf("re-serializing an accepted snapshot: %v", err)
		}
		c2 := fuzzStateCache()
		if err := c2.ReadState(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("roundtrip of an accepted snapshot was rejected: %v", err)
		}
		if c2.Len() != c.Len() {
			t.Fatalf("roundtrip entry count %d, want %d", c2.Len(), c.Len())
		}
	})
}
