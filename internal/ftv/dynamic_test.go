package ftv_test

import (
	"math/rand"
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/iso"
)

// liveExactAnswers is exactAnswers over a dataset with tombstones.
func liveExactAnswers(dataset []*graph.Graph, q *graph.Graph, qt ftv.QueryType) []int {
	var out []int
	for i, g := range dataset {
		if g == nil {
			continue
		}
		ok := iso.SubIso(q, g)
		if qt == ftv.Supergraph {
			ok = iso.SubIso(g, q)
		}
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// TestDynamicMethodMutations drives a mutation sequence through every
// bundled dynamic filter and cross-checks each Run against exhaustive VF2
// over the live dataset after every mutation.
func TestDynamicMethodMutations(t *testing.T) {
	base := molecules(7, 12)
	extra := molecules(8, 4)
	builders := map[string]func([]*graph.Graph) *ftv.Method{
		"ggsx": func(ds []*graph.Graph) *ftv.Method { return ftv.NewGGSXMethod(ds, 3) },
		"label": func(ds []*graph.Graph) *ftv.Method {
			return ftv.NewDynamicMethod("label/vf2", ds,
				func(d []*graph.Graph) ftv.Filter { return ftv.NewLabelFilter(d) }, nil)
		},
		"stars": func(ds []*graph.Graph) *ftv.Method {
			return ftv.NewDynamicMethod("stars/vf2", ds,
				func(d []*graph.Graph) ftv.Filter { return ftv.NewStarFilter(d, 3) }, nil)
		},
	}
	queries := make([]*graph.Graph, 6)
	rng := rand.New(rand.NewSource(9))
	for i := range queries {
		queries[i] = gen.ExtractConnectedSubgraph(rng, base[i%len(base)], 4+i%4)
	}

	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			m := build(base)
			check := func(when string) {
				t.Helper()
				ds := m.Dataset()
				for qi, q := range queries {
					for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
						got := m.Run(q, qt).Answers.Indices()
						want := liveExactAnswers(ds, q, qt)
						if len(got) != len(want) {
							t.Fatalf("%s: query %d (%s): answers %v, want %v", when, qi, qt, got, want)
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s: query %d (%s): answers %v, want %v", when, qi, qt, got, want)
							}
						}
					}
				}
			}
			check("initial")

			gid, err := m.AddGraph(extra[0])
			if err != nil {
				t.Fatal(err)
			}
			if gid != len(base) {
				t.Fatalf("first added gid %d, want %d", gid, len(base))
			}
			if m.Epoch() != 1 || m.DatasetSize() != len(base)+1 || m.LiveCount() != len(base)+1 {
				t.Fatalf("shape after add: epoch %d size %d live %d", m.Epoch(), m.DatasetSize(), m.LiveCount())
			}
			check("after add")

			if err := m.RemoveGraph(2); err != nil {
				t.Fatal(err)
			}
			if m.Epoch() != 2 || m.DatasetSize() != len(base)+1 || m.LiveCount() != len(base) {
				t.Fatalf("shape after remove: epoch %d size %d live %d", m.Epoch(), m.DatasetSize(), m.LiveCount())
			}
			check("after remove")

			// Ids are never reused: the next addition lands past the
			// tombstone.
			gid2, err := m.AddGraph(extra[1])
			if err != nil {
				t.Fatal(err)
			}
			if gid2 != len(base)+1 {
				t.Fatalf("second added gid %d, want %d", gid2, len(base)+1)
			}
			check("after second add")

			if err := m.RemoveGraph(2); err == nil {
				t.Error("double removal should error")
			}
			if err := m.RemoveGraph(-1); err == nil {
				t.Error("negative gid should error")
			}
			if err := m.RemoveGraph(m.DatasetSize()); err == nil {
				t.Error("out-of-range gid should error")
			}
		})
	}
}

// TestViewSnapshotIsolation pins the copy-on-write contract: a view taken
// before a mutation keeps answering for its own epoch.
func TestViewSnapshotIsolation(t *testing.T) {
	base := molecules(17, 8)
	m := ftv.NewGGSXMethod(base, 3)
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(18)), base[0], 4)

	old := m.View()
	oldCands := old.Candidates(q, ftv.Subgraph).Indices()

	if _, err := m.AddGraph(base[0]); err != nil { // duplicate: q surely matches it
		t.Fatal(err)
	}
	if err := m.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}

	// The old view is frozen: same size, same candidates, epoch 0.
	if old.Epoch() != 0 || old.Size() != len(base) {
		t.Fatalf("old view mutated: epoch %d size %d", old.Epoch(), old.Size())
	}
	again := old.Candidates(q, ftv.Subgraph).Indices()
	if len(again) != len(oldCands) {
		t.Fatalf("old view candidates changed: %v vs %v", again, oldCands)
	}

	// The new view reflects both mutations; the addition is the one id
	// past the old view's id space.
	now := m.View()
	if now.Epoch() != 2 || now.Graph(0) != nil || now.Graph(len(base)) == nil {
		t.Fatalf("new view wrong: epoch %d", now.Epoch())
	}
	if now.Size() != old.Size()+1 || !now.Live().Contains(old.Size()) {
		t.Fatalf("new view id space: size %d, live %v", now.Size(), now.Live().Indices())
	}
}

// TestFiltersTolerateNilGraphs builds every bundled filter over a dataset
// with tombstoned (nil) positions directly and checks no candidate set
// ever posts a tombstoned id once masked through the method.
func TestFiltersTolerateNilGraphs(t *testing.T) {
	ds := molecules(27, 6)
	ds[1], ds[4] = nil, nil
	q := gen.ExtractConnectedSubgraph(rand.New(rand.NewSource(28)), ds[0], 4)
	methods := []*ftv.Method{
		ftv.NewMethod("ggsx", ds, ftv.NewGGSX(ds, 3), nil),
		ftv.NewMethod("label", ds, ftv.NewLabelFilter(ds), nil),
		ftv.NewMethod("stars", ds, ftv.NewStarFilter(ds, 3), nil),
		ftv.NewMethod("none", ds, ftv.NewNoFilter(len(ds)), nil),
	}
	for _, m := range methods {
		if m.LiveCount() != 4 {
			t.Fatalf("%s: live count %d, want 4", m.Name(), m.LiveCount())
		}
		for _, qt := range []ftv.QueryType{ftv.Subgraph, ftv.Supergraph} {
			m.Candidates(q, qt).ForEach(func(gid int) bool {
				if ds[gid] == nil {
					t.Fatalf("%s: tombstoned gid %d is a %s candidate", m.Name(), gid, qt)
				}
				return true
			})
		}
	}
}
