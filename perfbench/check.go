package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// ggsxLen is gcd's default GGSX path length; the reference method and the
// traced stack use it too.
const ggsxLen = 4

// parseOne reads a single graph from the text codec, as the server does.
func parseOne(text string) (*graph.Graph, error) {
	gs, err := graph.ReadAll(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("want one graph, got %d", len(gs))
	}
	return gs[0], nil
}

// parseDataset reads the dataset file the way gcd does.
func parseDataset(b []byte) ([]*graph.Graph, error) {
	ds, err := graph.ReadAll(bytes.NewReader(b))
	if err != nil {
		return nil, fmt.Errorf("parsing dataset: %w", err)
	}
	return gen.AssignIDs(ds), nil
}

// referenceMethod builds an uncached Method M over the dataset the server
// ended with: the generated file, then the run's own adds in the order of
// the ids the server returned, then its removes.
func referenceMethod(in *inputs, live *liveSet) (*ftv.Method, error) {
	ds, err := parseDataset(in.dataset)
	if err != nil {
		return nil, err
	}
	m := ftv.NewGGSXMethod(ds, ggsxLen)
	added := slices.Clone(live.added)
	sort.Slice(added, func(i, j int) bool { return added[i].id < added[j].id })
	for _, a := range added {
		g, err := parseOne(in.adds[a.add].text)
		if err != nil {
			return nil, fmt.Errorf("replaying add: %w", err)
		}
		id, err := m.AddGraph(g)
		if err != nil {
			return nil, fmt.Errorf("replaying add: %w", err)
		}
		if id != a.id {
			return nil, fmt.Errorf("replaying adds: server returned id %d, replay assigned %d", a.id, id)
		}
	}
	for _, id := range live.removed {
		if err := m.RemoveGraph(id); err != nil {
			return nil, fmt.Errorf("replaying remove: %w", err)
		}
	}
	return m, nil
}

// gate compares sampled answers with uncached Method M. Reference answers
// are memoized per query, so it must only see samples taken against one
// dataset state.
type gate struct {
	in   *inputs
	ref  *ftv.Method
	memo map[int][]int
}

func newGate(in *inputs, ref *ftv.Method) *gate {
	return &gate{in: in, ref: ref, memo: map[int][]int{}}
}

// check counts the samples whose answers differ from Method M's and
// describes the first few.
func (g *gate) check(samples []sample) (bad int, errs []string) {
	for _, s := range samples {
		want, ok := g.memo[s.query]
		if !ok {
			q, err := parseOne(g.in.queries[s.query].text)
			if err != nil {
				bad++
				errs = append(errs, err.Error())
				continue
			}
			want = g.ref.Run(q, g.in.queries[s.query].qt).Answers.Indices()
			g.memo[s.query] = want
		}
		if !slices.Equal(s.answers, want) {
			bad++
			if len(errs) < 3 {
				errs = append(errs, fmt.Sprintf("query %d: %d answers, Method M has %d", s.query, len(s.answers), len(want)))
			}
		}
	}
	return bad, errs
}
