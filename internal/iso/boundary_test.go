package iso

import (
	"fmt"
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

// checkEmbedding reports why m is not an embedding of p into t (nil when
// it is): injective, label-preserving, and preserving every edge with its
// direction and edge label.
func checkEmbedding(p, t *graph.Graph, m []int) error {
	if len(m) != p.N() {
		return fmt.Errorf("mapping has %d entries for %d pattern vertices", len(m), p.N())
	}
	seen := make(map[int]bool, len(m))
	for pu, tv := range m {
		if tv < 0 || tv >= t.N() || seen[tv] {
			return fmt.Errorf("pattern vertex %d maps to %d: out of range or not injective", pu, tv)
		}
		seen[tv] = true
		if p.Label(pu) != t.Label(tv) {
			return fmt.Errorf("pattern vertex %d: label %d maps to label %d", pu, p.Label(pu), t.Label(tv))
		}
	}
	for _, e := range p.Edges() {
		u, v := m[e[0]], m[e[1]]
		if !t.HasEdge(u, v) {
			return fmt.Errorf("edge %v maps to non-edge (%d,%d)", e, u, v)
		}
		if p.EdgeLabel(e[0], e[1]) != t.EdgeLabel(u, v) {
			return fmt.Errorf("edge %v: label %d maps to %d", e, p.EdgeLabel(e[0], e[1]), t.EdgeLabel(u, v))
		}
	}
	return nil
}

// TestWordBoundaryDifferential runs targets on both sides of the 64-vertex
// word boundary, so both candidate paths of the matcher run, for every
// graph kind. VF2 must agree with Ullmann (and with brute force for small
// patterns), and FindEmbedding must return a valid mapping exactly when
// the verdict is true.
func TestWordBoundaryDifferential(t *testing.T) {
	kinds := []struct {
		name                 string
		directed, edgeLabels bool
	}{{"undirected", false, false}, {"directed", true, false}, {"edge-labelled", false, true}}
	for _, n := range []int{63, 64, 65, 128} {
		for _, k := range kinds {
			t.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)*7 + int64(len(k.name))))
				for trial := 0; trial < 12; trial++ {
					tg := molecule(rng, n, k.directed, k.edgeLabels, trial%3 == 0)
					size := 3 + rng.Intn(10)
					near := extractConnected(rng, tg, size)
					pats := []*graph.Graph{
						extractConnected(rng, tg, size),
						extractConnected(rng, molecule(rng, n, k.directed, k.edgeLabels, trial%3 == 0), size),
						relabelled(near, rng.Intn(near.N()), graph.Label(rng.Intn(4))),
						randomPattern(rng, 2+rng.Intn(3), k.directed, k.edgeLabels),
					}
					for j, p := range pats {
						got, st := VF2(p, tg, Options{})
						if st.Aborted {
							t.Fatalf("trial %d/%d: unbudgeted search aborted", trial, j)
						}
						if want, _ := Ullmann(p, tg, Options{}); got != want {
							t.Fatalf("trial %d/%d: VF2 = %v, Ullmann = %v (p=%v)", trial, j, got, want, p)
						}
						if j == 0 && !got {
							t.Fatalf("trial %d: extracted pattern does not embed", trial)
						}
						if p.N() <= 4 {
							if want := bruteSubIsoGeneral(p, tg); got != want {
								t.Fatalf("trial %d/%d: VF2 = %v, brute force = %v", trial, j, got, want)
							}
						}
						emb := FindEmbedding(p, tg)
						if (emb != nil) != got {
							t.Fatalf("trial %d/%d: FindEmbedding = %v with verdict %v", trial, j, emb, got)
						}
						if emb != nil {
							if err := checkEmbedding(p, tg, emb); err != nil {
								t.Fatalf("trial %d/%d: %v", trial, j, err)
							}
						}
					}
				}
			})
		}
	}
}

// TestCandidatePathsAgree runs the word-mask search and the list search
// on the same targets of at most 64 vertices: both must expand the same
// search tree — verdict, recursions, abort point, embedding and count.
func TestCandidatePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	type outcome struct {
		ok      bool
		rec     int64
		aborted bool
		found   int
		img     string
	}
	runPath := func(p, tg *graph.Graph, lists bool, budget int64, count bool) outcome {
		m := matcher{plan: p.Plan(), t: tg, max: budget, count: count}
		m.labels = m.plan.EdgeLabels() || tg.HasEdgeLabels()
		n := p.N()
		var ok bool
		var img []int32
		if lists {
			img, pos, used := new(listState).reset(n, tg.N())
			ok = m.searchLists(img, pos, used)
			return outcome{ok, m.st.Recursions, m.st.Aborted, m.found, fmt.Sprint(img)}
		}
		img = make([]int32, n)
		ok = m.searchMasks(tg.AdjMasks(), img)
		return outcome{ok, m.st.Recursions, m.st.Aborted, m.found, fmt.Sprint(img)}
	}
	for trial := 0; trial < 300; trial++ {
		directed, edgeLabels := trial%3 == 1, trial%3 == 2
		tg := molecule(rng, 20+rng.Intn(45), directed, edgeLabels, trial%2 == 0)
		var p *graph.Graph
		if trial%4 == 0 {
			p = randomPattern(rng, 3+rng.Intn(5), directed, edgeLabels)
		} else {
			p = extractConnected(rng, tg, 3+rng.Intn(14))
			if trial%4 == 1 {
				p = relabelled(p, rng.Intn(p.N()), graph.Label(rng.Intn(4)))
			}
		}
		if quickReject(p, tg) {
			continue
		}
		for _, budget := range []int64{0, 7} {
			for _, count := range []bool{false, true} {
				masks := runPath(p, tg, false, budget, count)
				lists := runPath(p, tg, true, budget, count)
				if masks != lists {
					t.Fatalf("trial %d (budget %d, count %v): masks %+v, lists %+v", trial, budget, count, masks, lists)
				}
			}
		}
	}
}
