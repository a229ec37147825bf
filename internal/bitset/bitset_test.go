package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d, want 130", s.Len())
	}
	if !s.Empty() || s.Count() != 0 {
		t.Fatalf("new set not empty: count=%d", s.Count())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(100)
	for _, i := range []int{0, 1, 63, 64, 65, 99} {
		s.Add(i)
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false after Add", i)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Error("Contains(64) = true after Remove")
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	// Removing an absent bit is a no-op.
	s.Remove(64)
	if got := s.Count(); got != 5 {
		t.Fatalf("Count after double remove = %d, want 5", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if got := s.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", i)
				}
			}()
			s.Add(i)
		}()
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Error("And with mismatched capacity did not panic")
		}
	}()
	a.And(b)
}

func TestSetAllAndTrim(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		s := NewFull(n)
		if got := s.Count(); got != n {
			t.Errorf("NewFull(%d).Count() = %d", n, got)
		}
	}
}

func TestBooleanAlgebra(t *testing.T) {
	a := FromIndices(200, []int{1, 5, 64, 100, 150})
	b := FromIndices(200, []int{5, 64, 99, 150, 199})

	and := a.Clone()
	and.And(b)
	if got, want := and.String(), "{5, 64, 150}"; got != want {
		t.Errorf("And = %s, want %s", got, want)
	}
	or := a.Clone()
	or.Or(b)
	if got := or.Count(); got != 7 {
		t.Errorf("Or count = %d, want 7", got)
	}
	diff := a.Clone()
	diff.AndNot(b)
	if got, want := diff.String(), "{1, 100}"; got != want {
		t.Errorf("AndNot = %s, want %s", got, want)
	}

	if got := a.IntersectionCount(b); got != 3 {
		t.Errorf("IntersectionCount = %d, want 3", got)
	}
	if got := a.DifferenceCount(b); got != 2 {
		t.Errorf("DifferenceCount = %d, want 2", got)
	}
}

func TestSubsetEqual(t *testing.T) {
	a := FromIndices(64, []int{1, 2, 3})
	b := FromIndices(64, []int{1, 2, 3, 10})
	if !a.SubsetOf(b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(a) {
		t.Error("b should not be subset of a")
	}
	if !a.SubsetOf(a.Clone()) {
		t.Error("a should be subset of itself")
	}
	if a.Equal(b) {
		t.Error("a should not equal b")
	}
	if !a.Equal(a.Clone()) {
		t.Error("a should equal its clone")
	}
	if a.Equal(New(65)) {
		t.Error("different capacities should not be Equal")
	}
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := FromIndices(300, []int{7, 70, 200, 299})
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return true
	})
	want := []int{7, 70, 200, 299}
	if len(seen) != len(want) {
		t.Fatalf("seen %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen %v, want %v", seen, want)
		}
	}
	// early stop
	n := 0
	s.ForEach(func(int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	idx := []int{0, 63, 64, 127, 128}
	s := FromIndices(129, idx)
	got := s.Indices()
	if len(got) != len(idx) {
		t.Fatalf("Indices = %v, want %v", got, idx)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Fatalf("Indices = %v, want %v", got, idx)
		}
	}
}

func TestClearAndClone(t *testing.T) {
	s := FromIndices(70, []int{3, 69})
	c := s.Clone()
	s.Clear()
	if !s.Empty() {
		t.Error("Clear left bits set")
	}
	if c.Count() != 2 {
		t.Error("Clone shares storage with original")
	}
}

func TestStringEmpty(t *testing.T) {
	if got := New(5).String(); got != "{}" {
		t.Errorf("String = %q, want {}", got)
	}
}

func TestBytesPositive(t *testing.T) {
	if New(1000).Bytes() <= 0 {
		t.Error("Bytes should be positive")
	}
}

// Property: And/Or/AndNot agree with a map-based reference implementation.
func TestQuickAgainstReference(t *testing.T) {
	const n = 257
	f := func(aIdx, bIdx []uint16) bool {
		ref := func(idx []uint16) map[int]bool {
			m := map[int]bool{}
			for _, v := range idx {
				m[int(v)%n] = true
			}
			return m
		}
		ma, mb := ref(aIdx), ref(bIdx)
		a, b := New(n), New(n)
		for i := range ma {
			a.Add(i)
		}
		for i := range mb {
			b.Add(i)
		}

		and := a.Clone()
		and.And(b)
		or := a.Clone()
		or.Or(b)
		diff := a.Clone()
		diff.AndNot(b)

		for i := 0; i < n; i++ {
			if and.Contains(i) != (ma[i] && mb[i]) {
				return false
			}
			if or.Contains(i) != (ma[i] || mb[i]) {
				return false
			}
			if diff.Contains(i) != (ma[i] && !mb[i]) {
				return false
			}
		}
		return and.Count() == a.IntersectionCount(b) &&
			diff.Count() == a.DifferenceCount(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubsetOf is consistent with AndNot emptiness.
func TestQuickSubset(t *testing.T) {
	const n = 100
	f := func(aIdx, bIdx []uint8) bool {
		a, b := New(n), New(n)
		for _, v := range aIdx {
			a.Add(int(v) % n)
		}
		for _, v := range bIdx {
			b.Add(int(v) % n)
		}
		d := a.Clone()
		d.AndNot(b)
		return a.SubsetOf(b) == d.Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBitsetAnd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := New(100000), New(100000)
	for i := 0; i < 5000; i++ {
		x.Add(rng.Intn(100000))
		y.Add(rng.Intn(100000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := x.Clone()
		z.And(y)
	}
}

// TestFromSorted checks FromSorted against FromIndices on both sides of
// the sparse break-even, and that an index past the capacity panics.
func TestFromSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 63, 64, 1000, 10000} {
		for _, density := range []float64{0, 0.001, 0.02, 0.05, 0.5, 1} {
			var idx []uint32
			var ints []int
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					idx = append(idx, uint32(i))
					ints = append(ints, i)
				}
			}
			got, want := FromSorted(n, idx), FromIndices(n, ints)
			if !got.Equal(want) || got.Count() != len(idx) || got.Len() != n {
				t.Fatalf("n=%d density=%g: FromSorted %v, FromIndices %v", n, density, got, want)
			}
			if len(idx) > 0 {
				idx[0]++ // FromSorted copies its input
				if !got.Equal(want) {
					t.Fatalf("n=%d density=%g: FromSorted aliases its input", n, density)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an index past the capacity did not panic")
		}
	}()
	FromSorted(10, []uint32{3, 10})
}
