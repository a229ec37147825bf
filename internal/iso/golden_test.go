package iso

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphcache/internal/graph"
)

// The golden parity table pins the matcher's observable search: for every
// seeded (pattern, target, budget) case it records the verdict, whether
// the budget aborted the search, and the number of search-tree nodes
// expanded. The cache's HitIsoBudget semantics and, through them, which
// hits a query collects depend on all three, so a matcher rewrite must
// reproduce every row. The graph generators below are local to this file
// so the table does not move when internal/gen does. Regenerate (only
// when the search tree is meant to change) with:
//
//	go test ./internal/iso/ -run TestVF2GoldenParity -args -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/vf2_golden.txt from the current matcher")

const goldenPath = "testdata/vf2_golden.txt"

// goldenBudgets are the MaxRecursions values every VF2 case runs under:
// unlimited, and two caps small enough that molecule-sized searches abort.
var goldenBudgets = []int64{0, 5, 40}

// moleculeLabel draws a carbon-heavy vertex label, roughly the atom mix
// of the generated molecule datasets.
func moleculeLabel(rng *rand.Rand) graph.Label {
	switch r := rng.Intn(100); {
	case r < 60:
		return 0
	case r < 75:
		return 1
	case r < 87:
		return 2
	case r < 95:
		return 3
	default:
		return graph.Label(4 + rng.Intn(4))
	}
}

// molecule returns a molecule-shaped graph on n vertices: a random tree
// of maximum degree 4 closed into about n/10 rings, with carbon-heavy
// labels (two equally likely labels when flat, which makes searches
// branch far more). Directed variants orient every bond at random (a
// tenth of them both ways); edge-labelled variants carry bond orders 1–3.
func molecule(rng *rand.Rand, n int, directed, edgeLabels, flat bool) *graph.Graph {
	deg := make([]int, n)
	adjacent := make(map[[2]int]bool)
	var bonds [][2]int
	bond := func(u, v int) {
		deg[u]++
		deg[v]++
		adjacent[[2]int{u, v}], adjacent[[2]int{v, u}] = true, true
		bonds = append(bonds, [2]int{u, v})
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		for try := 0; try < 8 && deg[u] >= 4; try++ {
			u = rng.Intn(v)
		}
		bond(u, v)
	}
	for r := 0; r < n/10; r++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v && !adjacent[[2]int{u, v}] && deg[u] < 4 && deg[v] < 4 {
			bond(u, v)
		}
	}
	b := graph.NewBuilder(n)
	if directed {
		b.Directed()
	}
	for v := 0; v < n; v++ {
		if flat {
			b.SetLabel(v, graph.Label(rng.Intn(2)))
		} else {
			b.SetLabel(v, moleculeLabel(rng))
		}
	}
	for _, e := range bonds {
		u, v := e[0], e[1]
		if directed && rng.Intn(2) == 0 {
			u, v = v, u
		}
		arcs := [][2]int{{u, v}}
		if directed && rng.Intn(10) == 0 {
			arcs = append(arcs, [2]int{v, u})
		}
		for _, a := range arcs {
			if edgeLabels {
				order := graph.Label(1)
				if r := rng.Intn(100); r >= 95 {
					order = 3
				} else if r >= 70 {
					order = 2
				}
				b.AddLabeledEdge(a[0], a[1], order)
			} else {
				b.AddEdge(a[0], a[1])
			}
		}
	}
	return b.MustBuild()
}

// extractConnected returns the subgraph of g induced by k vertices grown
// from a random seed along (weakly) connecting edges, renumbered in a
// random order — a connected pattern that embeds in g.
func extractConnected(rng *rand.Rand, g *graph.Graph, k int) *graph.Graph {
	if k > g.N() {
		k = g.N()
	}
	in := make(map[int]bool, k)
	grown := []int{rng.Intn(g.N())}
	in[grown[0]] = true
	var frontier []int
	for len(grown) < k {
		frontier = frontier[:0]
		for _, v := range grown {
			for _, w := range g.OutNeighbors(v) {
				if !in[int(w)] {
					frontier = append(frontier, int(w))
				}
			}
			for _, w := range g.InNeighbors(v) {
				if !in[int(w)] {
					frontier = append(frontier, int(w))
				}
			}
		}
		if len(frontier) == 0 {
			break // the seed's component is exhausted
		}
		w := frontier[rng.Intn(len(frontier))]
		in[w] = true
		grown = append(grown, w)
	}
	rng.Shuffle(len(grown), func(i, j int) { grown[i], grown[j] = grown[j], grown[i] })
	p, err := g.InducedSubgraph(grown)
	if err != nil {
		panic(err)
	}
	return p
}

// relabelled returns a copy of g with vertex v's label replaced by l:
// from an extracted pattern, a near miss that searches deep before
// failing.
func relabelled(g *graph.Graph, v int, l graph.Label) *graph.Graph {
	b := graph.NewBuilder(g.N())
	if g.Directed() {
		b.Directed()
	}
	b.SetLabels(g.Labels())
	b.SetLabel(v, l)
	for _, e := range g.Edges() {
		if g.HasEdgeLabels() {
			b.AddLabeledEdge(e[0], e[1], g.EdgeLabel(e[0], e[1]))
		} else {
			b.AddEdge(e[0], e[1])
		}
	}
	return b.MustBuild()
}

// randomPattern returns an unstructured pattern of the target's kind.
func randomPattern(rng *rand.Rand, k int, directed, edgeLabels bool) *graph.Graph {
	switch {
	case directed && edgeLabels:
		return randomDigraph(rng, k, 4, 3, 0.3)
	case directed:
		return randomDigraph(rng, k, 4, 0, 0.3)
	case edgeLabels:
		return randomEdgeLabelled(rng, k, 4, 3, 0.35)
	default:
		return randomGraph(rng, k, 4, 0.35)
	}
}

// goldenPair is one seeded (pattern, target) pair of the parity table.
type goldenPair struct {
	name string
	p, t *graph.Graph
}

// goldenFamily generates targets of one kind and, per target, an
// extracted pattern, a second extracted pattern, a pattern extracted from
// another target, a relabelled near miss and a random pattern.
func goldenFamily(rng *rand.Rand, name string, targets, minN, maxN int, directed, edgeLabels, flat bool) []goldenPair {
	ts := make([]*graph.Graph, targets)
	for i := range ts {
		ts[i] = molecule(rng, minN+rng.Intn(maxN-minN+1), directed, edgeLabels, flat)
	}
	size := func() int { return 4 + rng.Intn(13) } // 4–16 vertices
	var out []goldenPair
	for i, tg := range ts {
		near := extractConnected(rng, tg, size())
		pats := []*graph.Graph{
			extractConnected(rng, tg, size()),
			extractConnected(rng, tg, size()),
			extractConnected(rng, ts[(i+1)%len(ts)], size()),
			relabelled(near, rng.Intn(near.N()), graph.Label(rng.Intn(4))),
			randomPattern(rng, size(), directed, edgeLabels),
		}
		for j, p := range pats {
			out = append(out, goldenPair{fmt.Sprintf("%s/%d/%d", name, i, j), p, tg})
		}
	}
	return out
}

// goldenRows runs the current matcher over every golden case and renders
// one row per case: "<name> <verdict> <aborted> <recursions>" for VF2
// runs, "<name> count <n>" for CountEmbeddings and "<name> embed <f(0)>
// <f(1)> ..." for the mapping FindEmbedding returns (empty when none).
func goldenRows() []string {
	rng := rand.New(rand.NewSource(2018))
	var pairs []goldenPair
	pairs = append(pairs, goldenFamily(rng, "mol", 120, 20, 50, false, false, false)...)
	pairs = append(pairs, goldenFamily(rng, "flat", 30, 20, 40, false, false, true)...)
	pairs = append(pairs, goldenFamily(rng, "dir", 40, 20, 50, true, false, false)...)
	pairs = append(pairs, goldenFamily(rng, "elab", 40, 20, 50, false, true, false)...)
	pairs = append(pairs, goldenFamily(rng, "dirlab", 20, 20, 50, true, true, false)...)
	pairs = append(pairs, goldenFamily(rng, "large", 30, 65, 200, false, false, false)...)
	pairs = append(pairs, goldenFamily(rng, "largedir", 10, 65, 200, true, true, false)...)
	pairs = append(pairs, goldenFamily(rng, "largeflat", 20, 65, 130, false, false, true)...)

	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	var rows []string
	for _, c := range pairs {
		for _, budget := range goldenBudgets {
			ok, st := VF2(c.p, c.t, Options{MaxRecursions: budget})
			rows = append(rows, fmt.Sprintf("%s/b%d %d %d %d", c.name, budget, b2i(ok), b2i(st.Aborted), st.Recursions))
		}
	}
	// Embedding counts and first embeddings on the undirected molecule
	// pairs: all embeddings of small patterns, a capped count for larger
	// ones.
	for _, c := range pairs {
		if !strings.HasPrefix(c.name, "mol/") || !strings.HasSuffix(c.name, "/0") && !strings.HasSuffix(c.name, "/1") {
			continue
		}
		limit := 0
		if c.p.N() > 7 {
			limit = 64
		}
		rows = append(rows, fmt.Sprintf("%s/count%d count %d", c.name, limit, CountEmbeddings(c.p, c.t, limit)))
		rows = append(rows, strings.TrimSpace(fmt.Sprintf("%s/embed embed %s", c.name, strings.Trim(fmt.Sprint(FindEmbedding(c.p, c.t)), "[]"))))
	}
	return rows
}

func TestVF2GoldenParity(t *testing.T) {
	got := goldenRows()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(got), goldenPath)
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, golden table has %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("row %d: got %q, want %q", i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d rows differ from the golden table", bad, len(want))
	}
}
