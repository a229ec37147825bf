package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomMemoGraph returns a random graph of the requested kind with
// labels < 5 and edge labels < 3.
func randomMemoGraph(rng *rand.Rand, n int, directed, edgeLabels bool, p float64) *Graph {
	b := NewBuilder(n)
	if directed {
		b.Directed()
	}
	for v := 0; v < n; v++ {
		b.SetLabel(v, Label(rng.Intn(5)))
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (!directed && v < u) || rng.Float64() >= p {
				continue
			}
			if edgeLabels {
				b.AddLabeledEdge(u, v, Label(rng.Intn(3)))
			} else {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// memoKinds are the graph kinds every summary must handle.
var memoKinds = []struct {
	name                 string
	directed, edgeLabels bool
}{{"undirected", false, false}, {"directed", true, false}, {"edge-labelled", false, true}, {"directed-labelled", true, true}}

// TestPlanDescribesGraph checks every field of the plan against the
// graph: the order is a permutation grown connected, and each depth's
// label, pending counts and matched neighbours (with edge labels) are
// exactly what the order implies.
func TestPlanDescribesGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range memoKinds {
		for trial := 0; trial < 40; trial++ {
			g := randomMemoGraph(rng, 1+rng.Intn(30), k.directed, k.edgeLabels, 0.15)
			pl := g.Plan()
			if pl.N() != g.N() || pl.Directed() != g.Directed() || pl.EdgeLabels() != g.HasEdgeLabels() {
				t.Fatalf("%s: plan shape (%d, %v, %v) for %v", k.name, pl.N(), pl.Directed(), pl.EdgeLabels(), g)
			}
			depth := make([]int, g.N())
			for v := range depth {
				depth[v] = -1
			}
			for d := 0; d < pl.N(); d++ {
				v := pl.Vertex(d)
				if depth[v] >= 0 {
					t.Fatalf("%s: vertex %d at depths %d and %d", k.name, v, depth[v], d)
				}
				depth[v] = d
			}
			for d := 0; d < pl.N(); d++ {
				v := pl.Vertex(d)
				if pl.Label(d) != g.Label(v) {
					t.Fatalf("%s: depth %d label %d, want %d", k.name, d, pl.Label(d), g.Label(v))
				}
				// matched returns the neighbours of v in list at depth < d
				// as depths, with their edge labels, in list order.
				matched := func(list []int32, out bool) (ds, ls []int32, pending int) {
					for _, w := range list {
						if depth[w] >= d {
							pending++
							continue
						}
						ds = append(ds, int32(depth[w]))
						if out {
							ls = append(ls, int32(g.EdgeLabel(v, int(w))))
						} else {
							ls = append(ls, int32(g.EdgeLabel(int(w), v)))
						}
					}
					return ds, ls, pending
				}
				ds, ls, pending := matched(g.OutNeighbors(v), true)
				if !slices.Equal(pl.MatchedOut(d), ds) || pl.PendingOut(d) != pending {
					t.Fatalf("%s: depth %d out: plan %v/%d, want %v/%d", k.name, d, pl.MatchedOut(d), pl.PendingOut(d), ds, pending)
				}
				if pl.EdgeLabels() && !slices.Equal(pl.MatchedOutLabels(d), ls) {
					t.Fatalf("%s: depth %d out labels %v, want %v", k.name, d, pl.MatchedOutLabels(d), ls)
				}
				if !g.Directed() {
					continue
				}
				ds, ls, pending = matched(g.InNeighbors(v), false)
				if !slices.Equal(pl.MatchedIn(d), ds) || pl.PendingIn(d) != pending {
					t.Fatalf("%s: depth %d in: plan %v/%d, want %v/%d", k.name, d, pl.MatchedIn(d), pl.PendingIn(d), ds, pending)
				}
				if pl.EdgeLabels() && !slices.Equal(pl.MatchedInLabels(d), ls) {
					t.Fatalf("%s: depth %d in labels %v, want %v", k.name, d, pl.MatchedInLabels(d), ls)
				}
			}
			if g.IsConnected() {
				for d := 1; d < pl.N(); d++ {
					if len(pl.MatchedOut(d)) == 0 && (!g.Directed() || len(pl.MatchedIn(d)) == 0) {
						t.Fatalf("%s: connected graph, depth %d has no matched neighbour", k.name, d)
					}
				}
			}
		}
	}
}

// TestPlanOrderPrefersConnectionThenDegree pins the visit order rule on a
// small example: start at the highest degree, then the most-connected
// vertex, ties broken by degree, then by id.
func TestPlanOrderPrefersConnectionThenDegree(t *testing.T) {
	// 0-1, 1-2, 1-3, 2-3, 3-4: vertex 1 and 3 have degree 3; 1 wins on id.
	g := MustNew([]Label{0, 0, 0, 0, 0}, [][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}})
	pl := g.Plan()
	var order []int
	for d := 0; d < pl.N(); d++ {
		order = append(order, pl.Vertex(d))
	}
	// After 1: 3 (degree 3) beats 2 (degree 2) and 0; then 2 (two ordered
	// neighbours); then 0 and 4 (one each, equal degree) by id.
	if want := []int{1, 3, 2, 0, 4}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

func TestAdjMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range memoKinds {
		for _, n := range []int{1, 2, 17, 63, 64} {
			g := randomMemoGraph(rng, n, k.directed, k.edgeLabels, 0.1)
			m := g.AdjMasks()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if got := m.Out(u)&(1<<uint(v)) != 0; got != g.HasEdge(u, v) {
						t.Fatalf("%s n=%d: Out(%d) bit %d = %v", k.name, n, u, v, got)
					}
					if got := m.In(u)&(1<<uint(v)) != 0; got != g.HasEdge(v, u) {
						t.Fatalf("%s n=%d: In(%d) bit %d = %v", k.name, n, u, v, got)
					}
				}
			}
			for l := Label(0); l < 7; l++ {
				var want uint64
				for v := 0; v < n; v++ {
					if g.Label(v) == l {
						want |= 1 << uint(v)
					}
				}
				if got := m.Label(l); got != want {
					t.Fatalf("%s n=%d: Label(%d) = %x, want %x", k.name, n, l, got, want)
				}
			}
		}
	}
	if m := randomMemoGraph(rng, MaskVertices+1, false, false, 0.1).AdjMasks(); m != nil {
		t.Fatal("masks for a graph wider than one word")
	}
}

func TestLabelDegreeKeys(t *testing.T) {
	g := MustNew([]Label{2, 1, 2, 1, 2}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	// Label 1: degrees 2 (v1), 1 (v3); label 2: degrees 3 (v0), 2 (v2), 0 (v4).
	want := []uint32{1<<16 | 0xFFFD, 1<<16 | 0xFFFE, 2<<16 | 0xFFFC, 2<<16 | 0xFFFD, 2<<16 | 0xFFFF}
	if got := g.LabelDegreeKeys(); !slices.Equal(got, want) {
		t.Fatalf("keys %x, want %x", got, want)
	}
}

// TestWithIDSharesMemos: a re-identified graph shares every computed
// summary instead of recomputing it.
func TestWithIDSharesMemos(t *testing.T) {
	g := randomMemoGraph(rand.New(rand.NewSource(3)), 20, false, true, 0.2)
	pl, m, keys, fp := g.Plan(), g.AdjMasks(), g.LabelDegreeKeys(), g.WLFingerprint(3)
	c := g.WithID(9)
	if c.Plan() != pl || c.AdjMasks() != m || &c.LabelDegreeKeys()[0] != &keys[0] || c.WLFingerprint(3) != fp {
		t.Fatal("WithID did not share the memoized summaries")
	}
}
