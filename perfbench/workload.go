package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
)

// spec fixes one workload's shape. Everything else about its inputs comes
// from the seed.
type spec struct {
	name        string
	datasetSize int
	// poolSize is the number of distinct patterns; 0 means every query in
	// the stream is its own pattern (no resubmission).
	poolSize  int
	zipfS     float64
	chainFrac float64
	// writeEvery inserts one dataset write after every writeEvery reads;
	// writes cycle add, add, remove. 0 means read-only.
	writeEvery int
	// streamLen is the number of operations generated. A run stops early
	// if it ever consumes them all.
	streamLen int
	// warmup is the untimed prefix of the stream that fills the cache.
	warmup int
	// sampleEvery checks every sampleEvery-th operation of the timed
	// window against Method M (read-only workloads only).
	sampleEvery int
	// postCheck re-sends the first postCheck reads of the stream after
	// the window and checks them against Method M over the final dataset.
	postCheck int
}

// setupBoots is how many times the daemon is booted to time set-up; the
// median of the boots is setup_s.
const setupBoots = 5

var specs = []spec{
	{name: "hot", datasetSize: 2000, poolSize: 500, zipfS: 1.5, chainFrac: 0.5,
		streamLen: 1 << 20, warmup: 3000, sampleEvery: 250, postCheck: 200},
	{name: "cold", datasetSize: 10000,
		streamLen: 20000, warmup: 400, sampleEvery: 25, postCheck: 100},
	{name: "churn", datasetSize: 2000, poolSize: 500, zipfS: 1.5, chainFrac: 0.5, writeEvery: 20,
		streamLen: 1 << 19, warmup: 3000, postCheck: 200},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// scaled shrinks a spec for smoke tests; scale 1 is the real benchmark.
func (s spec) scaled(scale float64) spec {
	if scale >= 1 {
		return s
	}
	shrink := func(n, floor int) int {
		if m := int(float64(n) * scale); m > floor {
			return m
		}
		return floor
	}
	s.datasetSize = shrink(s.datasetSize, 50)
	if s.poolSize > 0 {
		s.poolSize = shrink(s.poolSize, 20)
	}
	s.streamLen = shrink(s.streamLen, 400)
	s.warmup = shrink(s.warmup, 40)
	s.postCheck = shrink(s.postCheck, 10)
	if s.sampleEvery > 0 {
		s.sampleEvery = shrink(s.sampleEvery, 5)
	}
	return s
}

type opKind uint8

const (
	opQuery opKind = iota
	opAdd
	opRemove
)

// op is one request of the stream. For a query, arg indexes inputs.queries;
// for an add, inputs.adds; for a remove, arg picks a live id at run time
// (the live set depends on the ids the daemon handed out).
type op struct {
	kind opKind
	arg  uint32
}

// query is one distinct pattern with its request body.
type query struct {
	qt   ftv.QueryType
	text string // the graph in the text codec
	body []byte // the POST /api/query JSON body
}

// addGraph is one graph a churn write appends to the dataset.
type addGraph struct {
	text string
	body []byte // the POST /api/dataset/graphs JSON body
}

// inputs is everything a run sends, generated from the seed alone.
type inputs struct {
	spec    spec
	seed    int64
	dataset []byte // the -dataset file handed to gcd
	queries []query
	adds    []addGraph
	ops     []op
}

// readOnly reports whether the dataset stays fixed during the run.
func (in *inputs) readOnly() bool { return in.spec.writeEvery == 0 }

func graphText(g *graph.Graph) string {
	var b strings.Builder
	if err := graph.WriteGraph(&b, g); err != nil {
		panic(err) // strings.Builder writes cannot fail
	}
	return b.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain string maps always marshal
	}
	return b
}

// generate builds a workload's inputs from internal/gen at the seed.
func generate(s spec, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	molecules := gen.Molecules(rng, s.datasetSize, gen.DefaultMoleculeConfig())
	var ds bytes.Buffer
	if err := graph.WriteAll(&ds, molecules); err != nil {
		return nil, fmt.Errorf("writing dataset: %w", err)
	}

	wc := gen.DefaultWorkloadConfig()
	wc.Mixed = true
	wc.ZipfS = s.zipfS
	wc.ChainFrac = s.chainFrac
	reads := s.streamLen
	if s.writeEvery > 0 {
		reads = s.streamLen * s.writeEvery / (s.writeEvery + 1)
	}
	if s.poolSize > 0 {
		wc.PoolSize = s.poolSize
		wc.Size = reads
	} else {
		// Every query distinct: the pool is the stream.
		wc.PoolSize = reads
		wc.Size = 0
	}
	wl, err := gen.NewWorkload(rng, molecules, wc)
	if err != nil {
		return nil, err
	}
	in := &inputs{spec: s, seed: seed, dataset: ds.Bytes()}
	for _, p := range wl.Pool {
		text := graphText(p.G)
		in.queries = append(in.queries, query{
			qt: p.Type, text: text,
			body: mustJSON(map[string]string{"graph": text, "type": p.Type.String()}),
		})
	}
	readArg := func(i int) uint32 {
		if s.poolSize > 0 {
			return uint32(wl.Queries[i].PoolID)
		}
		return uint32(i)
	}
	in.ops = make([]op, 0, s.streamLen)
	for r := 0; r < reads; r++ {
		in.ops = append(in.ops, op{kind: opQuery, arg: readArg(r)})
		if s.writeEvery == 0 || (r+1)%s.writeEvery != 0 {
			continue
		}
		w := (r + 1) / s.writeEvery
		if w%3 == 0 {
			in.ops = append(in.ops, op{kind: opRemove, arg: rng.Uint32()})
			continue
		}
		g := gen.Molecule(rng, gen.DefaultMoleculeConfig())
		text := graphText(g)
		in.ops = append(in.ops, op{kind: opAdd, arg: uint32(len(in.adds))})
		in.adds = append(in.adds, addGraph{text: text, body: mustJSON(map[string]string{"graph": text})})
	}
	return in, nil
}

// digest hashes the dataset file bytes and every request body in stream
// order (pool bodies, then the operation sequence that indexes them), so a
// change to internal/gen or the graph codec shows up as a new digest.
func (in *inputs) digest() string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put(in.dataset)
	for _, q := range in.queries {
		put(q.body)
	}
	for _, a := range in.adds {
		put(a.body)
	}
	for _, o := range in.ops {
		binary.LittleEndian.PutUint64(n[:], uint64(o.kind)<<32|uint64(o.arg))
		h.Write(n[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
