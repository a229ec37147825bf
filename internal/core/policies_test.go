package core

import (
	"testing"
)

// mkEntry builds a bare entry with the given utility stats.
func mkEntry(id int, inserted, lastUsed, hits int64, savedTests, savedCost float64) *Entry {
	return &Entry{
		ID:          id,
		InsertedAt:  inserted,
		LastUsed:    lastUsed,
		Hits:        hits,
		SavedTests:  savedTests,
		SavedCostNs: savedCost,
	}
}

func idsAt(entries []*Entry, pos []int) []int {
	out := make([]int, len(pos))
	for i, p := range pos {
		out[i] = entries[p].ID
	}
	return out
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 10, 0, 0, 0),
		mkEntry(1, 2, 5, 0, 0, 0),
		mkEntry(2, 3, 20, 0, 0, 0),
	}
	got := idsAt(entries, NewLRU().ReplacedContent(entries, 2))
	if got[0] != 1 || got[1] != 0 {
		t.Errorf("LRU victims = %v, want [1 0]", got)
	}
}

// Asking for every entry must still return them least useful first: the
// per-shard eviction walk reads the prefix in rank order, and an
// identity-ordered answer made it evict lowest-ID entries instead.
func TestReplacedContentRanksWholeSlice(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 10, 0, 0, 0),
		mkEntry(1, 2, 5, 0, 0, 0),
		mkEntry(2, 3, 20, 0, 0, 0),
	}
	for _, x := range []int{3, 5} {
		got := idsAt(entries, NewLRU().ReplacedContent(entries, x))
		if len(got) != 3 || got[0] != 1 || got[1] != 0 || got[2] != 2 {
			t.Errorf("LRU ReplacedContent(x=%d) = %v, want [1 0 2]", x, got)
		}
	}
}

func TestFIFOEvictsOldest(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 5, 100, 0, 0, 0),
		mkEntry(1, 1, 200, 0, 0, 0),
		mkEntry(2, 3, 300, 0, 0, 0),
	}
	got := idsAt(entries, NewFIFO().ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("FIFO victim = %v, want [1]", got)
	}
}

func TestPOPEvictsLeastPopular(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 1, 9, 0, 0),
		mkEntry(1, 1, 2, 2, 0, 0),
		mkEntry(2, 1, 3, 5, 0, 0),
	}
	got := idsAt(entries, NewPOP().ReplacedContent(entries, 2))
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("POP victims = %v, want [1 2]", got)
	}
}

func TestPINEvictsFewestSavedTests(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 100, 0),
		mkEntry(1, 1, 2, 9, 3, 0),
		mkEntry(2, 1, 3, 1, 50, 0),
	}
	got := idsAt(entries, NewPIN().ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("PIN victim = %v, want [1]", got)
	}
}

func TestPINCEvictsCheapestSavings(t *testing.T) {
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 5, 1e9),
		mkEntry(1, 1, 2, 1, 500, 1e3), // many tests saved but dirt cheap ones
		mkEntry(2, 1, 3, 1, 5, 1e6),
	}
	got := idsAt(entries, NewPINC().ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("PINC victim = %v, want [1]", got)
	}
}

func TestHDBlendsPINAndPINC(t *testing.T) {
	hd := NewHD()
	// Uniform per-hit cost observations keep cost weight near CV/(1+CV)=0
	// so HD reduces to normalized PIN.
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 100, 100),
		mkEntry(1, 1, 2, 1, 1, 1),
		mkEntry(2, 1, 3, 1, 50, 50),
	}
	got := idsAt(entries, hd.ReplacedContent(entries, 1))
	if got[0] != 1 {
		t.Errorf("HD victim = %v, want [1]", got)
	}
}

func TestHDCostWeightAdapts(t *testing.T) {
	hd := NewHD().(*scorePolicy)
	// Feed highly dispersed cost observations.
	for i, c := range []float64{10, 1e7, 5, 2e7, 1} {
		hd.UpdateCacheStaInfo(&HitEvent{Entry: mkEntry(i, 1, 1, 0, 0, 0), SavedTests: 1, SavedCostNs: c, Tick: int64(i)})
	}
	if hd.costCV.CV() < 0.5 {
		t.Fatalf("test setup: CV = %v should be large", hd.costCV.CV())
	}
	// Entry 0 saves many cheap tests; entry 1 saves few but expensive ones.
	// With high cost dispersion HD must favor keeping the expensive-savings
	// entry, i.e. evict the cheap-savings one... but normalized PIN also
	// counts. Construct so PINC dominates: equal saved tests, different cost.
	entries := []*Entry{
		mkEntry(0, 1, 1, 1, 10, 1e3),
		mkEntry(1, 1, 2, 1, 10, 1e8),
	}
	got := idsAt(entries, hd.ReplacedContent(entries, 1))
	if got[0] != 0 {
		t.Errorf("HD with dispersed costs evicted %v, want [0] (cheap savings)", got)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	entries := []*Entry{
		mkEntry(7, 1, 4, 2, 0, 0),
		mkEntry(3, 1, 4, 2, 0, 0),
		mkEntry(5, 1, 4, 2, 0, 0),
	}
	for _, p := range []Policy{NewLRU(), NewPOP(), NewPIN(), NewPINC(), NewHD()} {
		got := idsAt(entries, p.ReplacedContent(entries, 2))
		if got[0] != 3 || got[1] != 5 {
			t.Errorf("%s tie-break = %v, want [3 5]", p.Name(), got)
		}
	}
}

func TestReplacedContentAllWhenXTooLarge(t *testing.T) {
	entries := []*Entry{mkEntry(0, 1, 1, 0, 0, 0), mkEntry(1, 2, 2, 0, 0, 0)}
	for _, p := range []Policy{NewLRU(), NewRand(1), NewHD()} {
		got := p.ReplacedContent(entries, 10)
		if len(got) != 2 {
			t.Errorf("%s: x>len returned %d positions, want 2", p.Name(), len(got))
		}
	}
}

func TestRandPolicyDistinctAndSeeded(t *testing.T) {
	entries := make([]*Entry, 20)
	for i := range entries {
		entries[i] = mkEntry(i, int64(i), int64(i), 0, 0, 0)
	}
	a := NewRand(42).ReplacedContent(entries, 5)
	b := NewRand(42).ReplacedContent(entries, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("rand policy not reproducible from seed")
		}
	}
	seen := map[int]bool{}
	for _, p := range a {
		if seen[p] {
			t.Fatal("rand policy returned duplicate positions")
		}
		seen[p] = true
	}
}

func TestUpdateCacheStaInfoAccumulates(t *testing.T) {
	p := NewPIN()
	e := mkEntry(0, 1, 1, 0, 0, 0)
	p.UpdateCacheStaInfo(&HitEvent{Entry: e, Kind: SubHit, SavedTests: 7, SavedCostNs: 100, Tick: 5})
	p.UpdateCacheStaInfo(&HitEvent{Entry: e, Kind: SuperHit, SavedTests: 3, SavedCostNs: 50, Tick: 9})
	if e.Hits != 2 || e.SavedTests != 10 || e.SavedCostNs != 150 || e.LastUsed != 9 {
		t.Errorf("entry stats = %+v", e)
	}
}

func TestNewPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("NewPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Error("unknown policy should error")
	}
}

func TestEntryAging(t *testing.T) {
	e := mkEntry(0, 1, 1, 3, 100, 1000)
	e.age(0.5)
	if e.SavedTests != 50 || e.SavedCostNs != 500 {
		t.Errorf("aged entry = %+v", e)
	}
	if e.Hits != 3 {
		t.Error("aging must not touch hit counts")
	}
}

func TestHitKindString(t *testing.T) {
	if ExactHit.String() != "exact" || SubHit.String() != "sub" || SuperHit.String() != "super" {
		t.Error("HitKind strings wrong")
	}
	if HitKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}
