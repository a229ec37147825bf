package ftv_test

import (
	"testing"

	"graphcache/internal/ftv"
	"graphcache/internal/graph"
)

// FuzzGGSX decodes a small dataset, a split of it into built and inserted
// graphs, and a query, and requires GGSX to return exactly the naive
// reference's candidate sets in both directions. Input layout (every read
// past the end yields 0):
//
//	[0]      flags: bit 0 directed, bit 1 edge labels
//	[1]      maxLen (mod 5)
//	[2]      graph count (mod 8, +1)
//	[3]      how many of them NewGGSX builds (mod count, +1); the rest go
//	         through WithGraph
//	graphs   per graph: a tombstone byte (0 mod 5 makes it nil: a nil
//	         position when built, a skipped id when inserted), a vertex
//	         count (mod 7, +1), one label byte per vertex (mod 3), an edge
//	         count (mod 10) and that many (u, v, label) triples
//	query    one more graph in the same encoding, whose tombstone byte is
//	         ignored and whose vertex count may be 0
func FuzzGGSX(f *testing.F) {
	f.Add([]byte{0, 2, 3, 1, 1, 3, 0, 1, 2, 2, 0, 1, 0, 1, 2, 0})
	f.Add([]byte{3, 4, 7, 3, 1, 4, 0, 0, 1, 1, 5, 0, 1, 1, 1, 2, 2, 2, 3, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		flags := r.next()
		directed, labelled := flags&1 != 0, flags&2 != 0
		maxLen := r.next() % 5
		count := r.next()%8 + 1
		built := r.next()%count + 1

		var graphs []*graph.Graph
		for i := 0; i < count; i++ {
			tomb := r.next()%5 == 0
			g := decodeGraph(r, r.next()%7+1, directed, labelled)
			if tomb {
				g = nil
			}
			graphs = append(graphs, g)
		}
		q := decodeGraph(r, r.next()%7, directed, labelled)

		var x ftv.Filter = ftv.NewGGSX(graphs[:built], maxLen)
		ref := newRefGGSX(graphs[:built], maxLen)
		gid := built
		for _, g := range graphs[built:] {
			if g != nil {
				x = x.(ftv.InsertableFilter).WithGraph(gid, g)
				ref = ref.with(gid, g)
			}
			gid++
		}
		requireSameAsRef(t, "fuzz", x, ref, []*graph.Graph{q})
	})
}

type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	r.pos++
	return int(r.data[r.pos-1])
}

func decodeGraph(r *fuzzReader, n int, directed, labelled bool) *graph.Graph {
	b := graph.NewBuilder(n)
	if directed {
		b.Directed()
	}
	for v := 0; v < n; v++ {
		b.SetLabel(v, graph.Label(r.next()%3))
	}
	for m := r.next() % 10; m > 0; m-- {
		u, v, l := r.next(), r.next(), r.next()
		if n == 0 || u%n == v%n {
			continue
		}
		if labelled {
			b.AddLabeledEdge(u%n, v%n, graph.Label(l%3))
		} else {
			b.AddEdge(u%n, v%n)
		}
	}
	return b.MustBuild()
}
