package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"graphcache/internal/bitset"
)

// rankEntry builds a bare entry whose answer set has exactly count bits.
func rankEntry(id int, count int) *Entry {
	e := &Entry{ID: id, ans: &answersCell{}}
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	e.setAnswers(bitset.FromIndices(count+1, idx))
	return e
}

// TestRankCandidatesDeterministic is the regression test for the
// detectHits ranking extraction: the order must be a pure function of the
// candidate set — (answer count, entry ID) with the direction chosen by
// largerFirst — regardless of input permutation.
func TestRankCandidatesDeterministic(t *testing.T) {
	build := func() []*Entry {
		return []*Entry{
			rankEntry(3, 5), rankEntry(1, 5), rankEntry(7, 0),
			rankEntry(2, 9), rankEntry(5, 2), rankEntry(4, 9),
		}
	}
	wantLarger := []int{2, 4, 1, 3, 5, 7}  // count desc, ID asc on ties
	wantSmaller := []int{7, 5, 1, 3, 2, 4} // count asc, ID asc on ties
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		for _, tc := range []struct {
			largerFirst bool
			want        []int
		}{{true, wantLarger}, {false, wantSmaller}} {
			cands := build()
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			rankCandidates(cands, tc.largerFirst)
			for i, e := range cands {
				if e.ID != tc.want[i] {
					t.Fatalf("trial %d largerFirst=%v: got order %v at %d, want %v",
						trial, tc.largerFirst, ids(cands), i, tc.want)
				}
			}
		}
	}
}

func ids(es []*Entry) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// TestRankCandidatesConcurrentSwap reproduces the bug shape the
// extraction fixed: a concurrent publisher swapping answer sets while the
// ranking sorts. The pre-fix comparator reloaded each entry's answer cell
// per comparison, so a mid-sort swap could make the comparator
// inconsistent (sort.Slice behavior is then unspecified); the fixed
// version snapshots every count once, so concurrent swaps must never
// change the outcome: the result is always the exact (count, ID) order of
// SOME single snapshot — which here means a permutation of the input with
// IDs strictly sorted within each count class observed at sample time.
func TestRankCandidatesConcurrentSwap(t *testing.T) {
	const n = 64
	var stop atomic.Bool
	var wg sync.WaitGroup
	cands := make([]*Entry, n)
	for i := range cands {
		cands[i] = rankEntry(i+1, i%7)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			e := cands[k%n]
			e.setAnswers(bitset.FromIndices(16, []int{k % 16}))
		}
	}()
	for trial := 0; trial < 50; trial++ {
		work := append([]*Entry(nil), cands...)
		rankCandidates(work, trial%2 == 0)
		seen := map[int]bool{}
		for _, e := range work {
			if e == nil {
				t.Fatal("nil entry after ranking")
			}
			if seen[e.ID] {
				t.Fatalf("entry %d duplicated after ranking under concurrent swaps", e.ID)
			}
			seen[e.ID] = true
		}
		if len(seen) != n {
			t.Fatalf("ranking lost entries: %d of %d survive", len(seen), n)
		}
	}
	stop.Store(true)
	wg.Wait()
}
