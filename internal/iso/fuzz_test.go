package iso

import (
	"math/rand"
	"testing"

	"graphcache/internal/graph"
)

// fuzzMaxVertices bounds both decoded graphs: enough to straddle the
// 64-vertex word boundary of the matcher's mask path.
const fuzzMaxVertices = 70

// fuzzBudget bounds both matchers so a pathological input costs at most
// a few milliseconds; verdicts are compared only when neither aborted.
const fuzzBudget = 1 << 16

// Fuzz input layout (every read past the end yields 0):
//
//	[0]       flags: bit 0 directed, bit 1 edge labels, bit 2 extract the
//	          pattern from the target (an induced subgraph, so it embeds)
//	[1] [2]   pattern and target vertex counts, mod fuzzMaxVertices, +1
//	np bytes  pattern labels (mod 4); with bit 2, the target vertices to
//	          extract (mod nt, repeats dropped)
//	nt bytes  target labels (mod 4)
//	[k]       pattern edge count
//	k × 3     pattern edges: u, v (mod np), edge label (mod 3)
//	rest × 3  target edges: u, v (mod nt), edge label (mod 3)
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) next() int {
	if r.pos >= len(r.data) {
		r.pos++
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

// decodeFuzzGraphs builds the (pattern, target) pair an input describes.
func decodeFuzzGraphs(data []byte) (p, t *graph.Graph) {
	r := &fuzzReader{data: data}
	flags := r.next()
	directed, edgeLabels, extract := flags&1 != 0, flags&2 != 0, flags&4 != 0
	np, nt := r.next()%fuzzMaxVertices+1, r.next()%fuzzMaxVertices+1
	newBuilder := func(n int) *graph.Builder {
		b := graph.NewBuilder(n)
		if directed {
			b.Directed()
		}
		return b
	}
	addEdge := func(b *graph.Builder, n, u, v, l int) {
		u, v = u%n, v%n
		if u == v {
			return
		}
		if edgeLabels {
			b.AddLabeledEdge(u, v, graph.Label(l%3))
		} else {
			b.AddEdge(u, v)
		}
	}
	pb := newBuilder(np)
	pick := make([]int, np)
	for v := range pick {
		pick[v] = r.next()
		pb.SetLabel(v, graph.Label(pick[v]%4))
	}
	tb := newBuilder(nt)
	for v := 0; v < nt; v++ {
		tb.SetLabel(v, graph.Label(r.next()%4))
	}
	for k := r.next(); k > 0; k-- {
		addEdge(pb, np, r.next(), r.next(), r.next())
	}
	for !r.done() {
		addEdge(tb, nt, r.next(), r.next(), r.next())
	}
	t = tb.MustBuild()
	if !extract {
		return pb.MustBuild(), t
	}
	seen := make(map[int]bool, np)
	var verts []int
	for _, b := range pick {
		if v := b % nt; !seen[v] {
			seen[v] = true
			verts = append(verts, v)
		}
	}
	p, err := t.InducedSubgraph(verts)
	if err != nil {
		panic(err) // distinct, in-range vertices by construction
	}
	return p, t
}

// encodeFuzzGraphs is decodeFuzzGraphs' inverse for graphs within its
// bounds with labels < 4 and edge labels < 3 (the extract flag unset).
func encodeFuzzGraphs(p, t *graph.Graph) []byte {
	flags := byte(0)
	if t.Directed() {
		flags |= 1
	}
	if p.HasEdgeLabels() || t.HasEdgeLabels() {
		flags |= 2
	}
	out := []byte{flags, byte(p.N() - 1), byte(t.N() - 1)}
	for _, g := range []*graph.Graph{p, t} {
		for _, l := range g.Labels() {
			out = append(out, byte(l))
		}
	}
	out = append(out, byte(len(p.Edges())))
	for _, g := range []*graph.Graph{p, t} {
		for _, e := range g.Edges() {
			out = append(out, byte(e[0]), byte(e[1]), byte(g.EdgeLabel(e[0], e[1])))
		}
	}
	return out
}

// FuzzSubIso cross-checks VF2 against Ullmann on decoded graph pairs of
// up to 70 vertices, directed or not, with or without edge labels, and
// checks that FindEmbedding returns a valid mapping exactly when VF2 says
// the pattern embeds.
func FuzzSubIso(f *testing.F) {
	rng := rand.New(rand.NewSource(70))
	for _, n := range []int{12, 63, 64, 65} {
		tg := molecule(rng, n, false, false, false)
		f.Add(encodeFuzzGraphs(extractConnected(rng, tg, 6), tg))
	}
	f.Add([]byte{4, 5, 40, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{7, 3, 66, 0, 65, 64, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, tg := decodeFuzzGraphs(data)
		got, st := VF2(p, tg, Options{MaxRecursions: fuzzBudget})
		want, ust := Ullmann(p, tg, Options{MaxRecursions: fuzzBudget})
		if st.Aborted || ust.Aborted {
			return
		}
		if got != want {
			t.Fatalf("VF2 = %v, Ullmann = %v\np=%v edges %v\nt=%v edges %v", got, want, p, p.Edges(), tg, tg.Edges())
		}
		emb := FindEmbedding(p, tg)
		if (emb != nil) != got {
			t.Fatalf("FindEmbedding = %v with verdict %v", emb, got)
		}
		if emb != nil {
			if err := checkEmbedding(p, tg, emb); err != nil {
				t.Fatal(err)
			}
		}
	})
}
