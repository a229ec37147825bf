package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"graphcache/internal/bitset"
	"graphcache/internal/core"
	"graphcache/internal/ftv"
	"graphcache/internal/gen"
	"graphcache/internal/graph"
	"graphcache/internal/server"
)

// perLayer names the metrics the result line carries with --trace 1.
var perLayer = []string{
	"server.handler_us_p50", "server.handler_us_p99", "server.wait_us_p50", "server.response_bytes_mean",
	"graph.parse_us_mean", "graph.fingerprint_us_mean", "graph.dataset_parse_s",
	"core.execute_us_p50.exact", "core.execute_us_p99.exact", "core.execute_us_p50.subsuper",
	"core.execute_us_p50.miss", "core.execute_us_p99.miss", "core.self_us_mean", "core.hit_us_mean",
	"core.exact_rate", "core.subsuper_rate", "core.miss_rate", "core.tests_per_query",
	"core.hit_detect_tests_per_query", "core.hit_detect_yield", "core.index_prune_ratio",
	"core.evictions_per_kq", "core.cache_bytes", "core.test_speedup", "core.time_speedup",
	"core.add_us_p50", "core.remove_us_p50", "core.maintenance_tests_per_add",
	"ftv.filter_us_mean", "ftv.filter_us_p99", "ftv.candidates_per_query", "ftv.filter_precision",
	"ftv.build_s", "ftv.index_bytes", "ftv.filter_maintain_us_per_add",
	"iso.verify_us_mean", "iso.us_per_test", "iso.verify_yield",
	"bitset.answer_bytes_per_entry", "bitset.intern_hit_rate",
	"trace.overhead_pct",
}

// opHeader carries the operation index from the load generator to the
// traced handler.
const opHeader = "X-Bench-Op"

// tracer records spans around the calls the benchmark makes into each
// layer. Filter and verifier spans come from wrappers the benchmark hands
// to ftv.NewDynamicMethod; they are kept only while on is set (the timed
// window), so warm-up, checks and the Method M pass stay out.
type tracer struct {
	on atomic.Bool

	mu       sync.Mutex
	filterNs []int64         // one span per Filter.Candidates call
	handler  map[int32]int64 // handler span per operation index

	isoCalls, isoTrue, isoNs atomic.Int64
}

func newTracer() *tracer { return &tracer{handler: map[int32]int64{}} }

// method builds Method M exactly as ftv.NewGGSXMethod does (GGSX path
// length 4, VF2 verification), with the filter and verifier wrapped.
func (t *tracer) method(ds []*graph.Graph) *ftv.Method {
	return ftv.NewDynamicMethod(fmt.Sprintf("ggsx-L%d/vf2", ggsxLen), ds,
		func(ds []*graph.Graph) ftv.Filter { return &tracedFilter{inner: ftv.NewGGSX(ds, ggsxLen), t: t} },
		t.verify)
}

func (t *tracer) verify(p, g *graph.Graph) bool {
	if !t.on.Load() {
		return ftv.VF2Verifier(p, g)
	}
	t0 := time.Now()
	ok := ftv.VF2Verifier(p, g)
	t.isoNs.Add(int64(time.Since(t0)))
	t.isoCalls.Add(1)
	if ok {
		t.isoTrue.Add(1)
	}
	return ok
}

// tracedFilter times Candidates and keeps the incremental-insert path of
// the filter it wraps.
type tracedFilter struct {
	inner ftv.Filter
	t     *tracer
}

func (f *tracedFilter) Name() string    { return f.inner.Name() }
func (f *tracedFilter) IndexBytes() int { return f.inner.IndexBytes() }

func (f *tracedFilter) Candidates(q *graph.Graph, qt ftv.QueryType) *bitset.Set {
	if !f.t.on.Load() {
		return f.inner.Candidates(q, qt)
	}
	t0 := time.Now()
	c := f.inner.Candidates(q, qt)
	d := int64(time.Since(t0))
	f.t.mu.Lock()
	f.t.filterNs = append(f.t.filterNs, d)
	f.t.mu.Unlock()
	return c
}

func (f *tracedFilter) WithGraph(gid int, g *graph.Graph) ftv.Filter {
	return &tracedFilter{inner: f.inner.(ftv.InsertableFilter).WithGraph(gid, g), t: f.t}
}

// wrap spans the http.Handler: one span per tagged request.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := int64(time.Since(t0))
		if op, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil && op >= 0 && t.on.Load() {
			t.mu.Lock()
			t.handler[int32(op)] = d
			t.mu.Unlock()
		}
	})
}

// cacheConfig is gcd's default cache configuration.
func cacheConfig() (core.Config, error) {
	p, err := core.NewPolicy("hd")
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig()
	cfg.Capacity = 50
	cfg.Window = 10
	cfg.Policy = p
	cfg.VerifyWorkers = 1
	return cfg, nil
}

// stack is one in-process GraphCache assembled from public functions.
type stack struct {
	t      *tracer
	method *ftv.Method
	cache  *core.Cache
	parse  time.Duration // graph.ReadAll over the dataset file
	build  time.Duration // Method M construction (the GGSX build)
	before core.Snapshot // cache counters when the window opened
	after  core.Snapshot // and when it closed
}

func newStack(in *inputs) (*stack, error) {
	st := &stack{t: newTracer()}
	t0 := time.Now()
	ds, err := parseDataset(in.dataset)
	if err != nil {
		return nil, err
	}
	st.parse = time.Since(t0)
	t1 := time.Now()
	st.method = st.t.method(ds)
	st.build = time.Since(t1)
	cfg, err := cacheConfig()
	if err != nil {
		return nil, err
	}
	if st.cache, err = core.New(st.method, cfg); err != nil {
		return nil, err
	}
	return st, nil
}

// window turns span recording on and off and snapshots the counters.
func (st *stack) window(open bool) {
	if open {
		st.before = st.cache.Stats()
		st.t.on.Store(true)
		return
	}
	st.t.on.Store(false)
	st.after = st.cache.Stats()
}

// serverPhase drives server.New's handler over loopback, exactly like the
// timed run drives gcd, with a span around the handler.
type serverPhase struct {
	st      *stack
	win     *loadResult
	handler []int64 // handler span of each window read, in readNs order
	wait    []int64 // round trip minus handler span
}

func runServerPhase(cfg config, in *inputs, rep *report, w io.Writer) (*serverPhase, error) {
	st, err := newStack(in)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: st.t.wrap(server.New(st.cache))}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	execs := make([]executor, clients)
	for i := range execs {
		h := newHTTPExec("http://"+ln.Addr().String(), true)
		defer h.close()
		execs[i] = h
	}
	win, post, live := loadAndCheck(cfg, in, execs, st.window)
	if err := srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	if err := gateResults(in, live, win, post, rep, w); err != nil {
		return nil, err
	}
	ph := &serverPhase{st: st, win: win}
	st.t.mu.Lock()
	defer st.t.mu.Unlock()
	for k, op := range win.readOp {
		h, ok := st.t.handler[op]
		if !ok {
			return nil, fmt.Errorf("no handler span for operation %d", op)
		}
		ph.handler = append(ph.handler, h)
		ph.wait = append(ph.wait, win.readNs[k]-h)
	}
	return ph, nil
}

// queryRecord is one traced Cache.Execute call.
type queryRecord struct {
	op                        int32
	class                     uint8
	execNs                    int64
	filterNs, hitNs, verifyNs int64
	tests, base, answers      int
	parseNs, fingerprintNs    int64 // fingerprintNs is -1 when not sampled
}

const (
	classExact = iota
	classSubSuper
	classMiss
)

// fingerprintEvery times WLFingerprint(3) on every n-th query, on a second
// fresh parse, so the memoized fingerprint the cache computes stays
// untouched.
const fingerprintEvery = 8

// coreExec calls the cache directly, with spans around graph.ReadAll,
// Cache.Execute, Cache.AddGraph and Cache.RemoveGraph.
type coreExec struct {
	st      *stack
	records []queryRecord
	addNs   []int64
	rmNs    []int64
}

func (c *coreExec) query(op int, q *query, decode bool) ([]int, int64, error) {
	t0 := time.Now()
	g, err := parseOne(q.text)
	parseNs := int64(time.Since(t0))
	if err != nil {
		return nil, 0, err
	}
	fpNs := int64(-1)
	if op%fingerprintEvery == 0 {
		fresh, err := parseOne(q.text)
		if err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		fresh.WLFingerprint(3)
		fpNs = int64(time.Since(t1))
	}
	t2 := time.Now()
	res, err := c.st.cache.Execute(g, q.qt)
	execNs := int64(time.Since(t2))
	if err != nil {
		return nil, 0, err
	}
	if c.st.t.on.Load() {
		class := uint8(classMiss)
		switch {
		case res.ExactHit:
			class = classExact
		case len(res.Hits) > 0:
			class = classSubSuper
		}
		c.records = append(c.records, queryRecord{
			op: int32(op), class: class, execNs: execNs,
			filterNs: int64(res.FilterTime), hitNs: int64(res.HitTime), verifyNs: int64(res.VerifyTime),
			tests: res.Tests, base: res.BaseCandidates, answers: res.Answers.Count(),
			parseNs: parseNs, fingerprintNs: fpNs,
		})
	}
	if !decode {
		return nil, 0, nil
	}
	return res.Answers.Indices(), 0, nil
}

func (c *coreExec) add(a *addGraph) (int, error) {
	g, err := parseOne(a.text)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	id, err := c.st.cache.AddGraph(g)
	c.addNs = append(c.addNs, int64(time.Since(t0)))
	return id, err
}

func (c *coreExec) remove(id int) error {
	t0 := time.Now()
	err := c.st.cache.RemoveGraph(id)
	c.rmNs = append(c.rmNs, int64(time.Since(t0)))
	return err
}

// corePhase drives Cache.Execute directly from the same stream.
type corePhase struct {
	st         *stack
	win        *loadResult
	records    []queryRecord
	addNs      []int64
	rmNs       []int64
	adds       int
	maintTests int64
	mTests     int64 // Method M over the sampled queries
	mNs        int64
	gcTests    int64 // the cache over the same queries
	gcNs       int64
	mSampled   int
}

// probeWrites is how many graphs the write probe adds (and then removes)
// on read-only workloads, which have no writes of their own to time.
const probeWrites = 20

func runCorePhase(cfg config, in *inputs, rep *report, w io.Writer) (*corePhase, error) {
	st, err := newStack(in)
	if err != nil {
		return nil, err
	}
	ces := make([]*coreExec, clients)
	execs := make([]executor, clients)
	for i := range ces {
		ces[i] = &coreExec{st: st}
		execs[i] = ces[i]
	}
	maint0 := st.cache.Stats().MaintenanceTests
	win, post, live := loadAndCheck(cfg, in, execs, st.window)
	if err := gateResults(in, live, win, post, rep, w); err != nil {
		return nil, err
	}
	ph := &corePhase{st: st, win: win}
	for _, c := range ces {
		ph.records = append(ph.records, c.records...)
		ph.addNs = append(ph.addNs, c.addNs...)
		ph.rmNs = append(ph.rmNs, c.rmNs...)
	}
	ph.adds = len(ph.addNs)
	if in.readOnly() {
		// Time writes against this workload's cache state with a probe
		// after the window: add fresh molecules, then remove them again.
		rng := rand.New(rand.NewSource(in.seed + 1))
		var ids []int
		for i := 0; i < probeWrites; i++ {
			t0 := time.Now()
			id, err := st.cache.AddGraph(gen.Molecule(rng, gen.DefaultMoleculeConfig()))
			ph.addNs = append(ph.addNs, int64(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("write probe: %w", err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			t0 := time.Now()
			if err := st.cache.RemoveGraph(id); err != nil {
				return nil, fmt.Errorf("write probe: %w", err)
			}
			ph.rmNs = append(ph.rmNs, int64(time.Since(t0)))
		}
		ph.adds += probeWrites
	}
	ph.maintTests = st.cache.Stats().MaintenanceTests - maint0
	ph.methodPass(in, time.Duration(cfg.seconds*float64(time.Second))/3)
	return ph, nil
}

// methodPass runs uncached Method M over an evenly spaced sample of the
// window's queries, for the paper's speedup metrics. On churn it runs over
// the final dataset, not the one each query saw.
func (ph *corePhase) methodPass(in *inputs, budget time.Duration) {
	const maxSample = 400
	step := max(1, len(ph.records)/maxSample)
	start := time.Now()
	for k := 0; k < len(ph.records) && time.Since(start) < budget; k += step {
		r := ph.records[k]
		q := &in.queries[in.ops[r.op].arg]
		g, err := parseOne(q.text)
		if err != nil {
			continue // the window parsed the same text; cannot happen
		}
		res := ph.st.method.Run(g, q.qt)
		ph.mTests += int64(res.Tests)
		ph.mNs += int64(res.TotalTime())
		ph.gcTests += int64(r.tests)
		ph.gcNs += r.execNs
		ph.mSampled++
	}
}

// tracedRun assembles the stack in-process twice — once behind
// server.New's handler, once calling Cache.Execute directly — and reports
// the per-layer metrics.
func tracedRun(cfg config, in *inputs, timedQPS float64, rep *report, w io.Writer) error {
	// Each phase measures half a window: the per-layer figures are ratios
	// and percentiles that need far fewer samples than the end-to-end ones.
	cfg.seconds /= 2
	sp, err := runServerPhase(cfg, in, rep, w)
	if err != nil {
		return fmt.Errorf("traced server phase: %w", err)
	}
	cp, err := runCorePhase(cfg, in, rep, w)
	if err != nil {
		return fmt.Errorf("traced core phase: %w", err)
	}
	reportServer(sp, timedQPS, rep, w)
	reportCore(cp, rep, w)
	return nil
}

func reportServer(sp *serverPhase, timedQPS float64, rep *report, w io.Writer) {
	n := len(sp.handler)
	handlerTotal := sum(sp.handler)
	rep.add("server.handler_us_p50", "us", us(float64(pct(sp.handler, 0.5))), n)
	rep.add("server.handler_us_p99", "us", us(float64(pct(sp.handler, 0.99))), n)
	rep.add("server.wait_us_p50", "us", us(float64(pct(sp.wait, 0.5))), n)
	rep.add("server.response_bytes_mean", "B", ratio(float64(sp.win.respBytes), float64(n)), n)
	qps, _ := sp.win.trimmedQPS()
	rep.add("trace.overhead_pct", "%", 100*(timedQPS-qps)/timedQPS, n)

	t := sp.st.t
	filterTotal, isoTotal := sum(t.filterNs), t.isoNs.Load()
	fmt.Fprintf(w, "trace server phase: %d queries at %.1f q/s traced in-process vs %.1f q/s timed against gcd (overhead %.1f%%)\n",
		n, qps, timedQPS, 100*(timedQPS-qps)/timedQPS)
	fmt.Fprintf(w, "split server phase (share of handler time %.3fs): ftv filter %.1f%%, iso verify %.1f%%, rest %.1f%%\n",
		float64(handlerTotal)/1e9, pctOf(filterTotal, handlerTotal), pctOf(isoTotal, handlerTotal),
		100-pctOf(filterTotal+isoTotal, handlerTotal))
	fmt.Fprintf(w, "split check: ftv filter + iso verify = %.1f%% of server handler time\n", pctOf(filterTotal+isoTotal, handlerTotal))
}

func reportCore(cp *corePhase, rep *report, w io.Writer) {
	st, recs := cp.st, cp.records
	n := len(recs)
	byClass := [3][]int64{}
	var self, hit, parse, fp []int64
	var tests, base, answers, filtered int64
	for _, r := range recs {
		byClass[r.class] = append(byClass[r.class], r.execNs)
		self = append(self, r.execNs-r.filterNs-r.hitNs-r.verifyNs)
		hit = append(hit, r.hitNs)
		parse = append(parse, r.parseNs)
		if r.fingerprintNs >= 0 {
			fp = append(fp, r.fingerprintNs)
		}
		tests += int64(r.tests)
		if r.class != classExact {
			filtered++
			base += int64(r.base)
			answers += int64(r.answers)
		}
	}
	d := func(f func(core.Snapshot) int64) float64 { return float64(f(st.after) - f(st.before)) }
	nq := float64(n)

	rep.add("graph.parse_us_mean", "us", us(mean(parse)), n)
	rep.add("graph.fingerprint_us_mean", "us", us(mean(fp)), len(fp))
	rep.add("graph.dataset_parse_s", "s", st.parse.Seconds(), 1)

	exact, subsuper, miss := byClass[classExact], byClass[classSubSuper], byClass[classMiss]
	rep.add("core.execute_us_p50.exact", "us", us(float64(pct(exact, 0.5))), len(exact))
	rep.add("core.execute_us_p99.exact", "us", us(float64(pct(exact, 0.99))), len(exact))
	rep.add("core.execute_us_p50.subsuper", "us", us(float64(pct(subsuper, 0.5))), len(subsuper))
	rep.add("core.execute_us_p50.miss", "us", us(float64(pct(miss, 0.5))), len(miss))
	rep.add("core.execute_us_p99.miss", "us", us(float64(pct(miss, 0.99))), len(miss))
	rep.add("core.self_us_mean", "us", us(mean(self)), n)
	rep.add("core.hit_us_mean", "us", us(mean(hit)), n)
	rep.add("core.exact_rate", "ratio", ratio(float64(len(exact)), nq), n)
	rep.add("core.subsuper_rate", "ratio", ratio(float64(len(subsuper)), nq), n)
	rep.add("core.miss_rate", "ratio", ratio(float64(len(miss)), nq), n)
	rep.add("core.tests_per_query", "count", ratio(float64(tests), nq), n)
	hdTests := d(func(s core.Snapshot) int64 { return s.HitDetectionTests })
	rep.add("core.hit_detect_tests_per_query", "count", ratio(hdTests, nq), n)
	hits := d(func(s core.Snapshot) int64 { return s.SubHits + s.SuperHits })
	rep.add("core.hit_detect_yield", "ratio", ratio(hits, hdTests), int(hdTests))
	scanned := d(func(s core.Snapshot) int64 { return s.HitScanEntries })
	rep.add("core.index_prune_ratio", "ratio", ratio(d(func(s core.Snapshot) int64 { return s.HitIndexPruned }), scanned), int(scanned))
	rep.add("core.evictions_per_kq", "count/kq", 1000*ratio(d(func(s core.Snapshot) int64 { return s.Evictions }), nq), n)
	rep.add("core.cache_bytes", "B", float64(st.cache.Bytes()), st.cache.Len())
	rep.add("core.test_speedup", "ratio", ratio(float64(cp.mTests), float64(cp.gcTests)), cp.mSampled)
	rep.add("core.time_speedup", "ratio", ratio(float64(cp.mNs), float64(cp.gcNs)), cp.mSampled)
	rep.add("core.add_us_p50", "us", us(float64(pct(cp.addNs, 0.5))), len(cp.addNs))
	rep.add("core.remove_us_p50", "us", us(float64(pct(cp.rmNs, 0.5))), len(cp.rmNs))
	rep.add("core.maintenance_tests_per_add", "count", ratio(float64(cp.maintTests), float64(cp.adds)), cp.adds)

	t := st.t
	rep.add("ftv.filter_us_mean", "us", us(mean(t.filterNs)), len(t.filterNs))
	rep.add("ftv.filter_us_p99", "us", us(float64(pct(t.filterNs, 0.99))), len(t.filterNs))
	rep.add("ftv.candidates_per_query", "count", ratio(float64(base), float64(filtered)), int(filtered))
	rep.add("ftv.filter_precision", "ratio", ratio(float64(answers), float64(base)), int(filtered))
	rep.add("ftv.build_s", "s", st.build.Seconds(), 1)
	rep.add("ftv.index_bytes", "B", float64(st.method.Filter().IndexBytes()), 1)
	inserts := st.method.FilterInserts()
	rep.add("ftv.filter_maintain_us_per_add", "us", us(ratio(float64(st.method.FilterMaintainNs()), float64(inserts))), int(inserts))

	isoNs, isoCalls := float64(t.isoNs.Load()), float64(t.isoCalls.Load())
	rep.add("iso.verify_us_mean", "us", us(ratio(isoNs, nq)), n)
	rep.add("iso.us_per_test", "us", us(ratio(isoNs, isoCalls)), int(isoCalls))
	rep.add("iso.verify_yield", "ratio", ratio(float64(t.isoTrue.Load()), isoCalls), int(isoCalls))

	snap := st.cache.Stats()
	rep.add("bitset.answer_bytes_per_entry", "B", ratio(float64(snap.AnswerBytes), float64(st.cache.Len())), st.cache.Len())
	rep.add("bitset.intern_hit_rate", "ratio", ratio(float64(snap.InternHits), float64(snap.InternHits+snap.InternMisses)), int(snap.InternHits+snap.InternMisses))

	execTotal := sum(exact) + sum(subsuper) + sum(miss)
	filterTotal, isoTotal := sum(t.filterNs), t.isoNs.Load()
	coreQPS, _ := cp.win.trimmedQPS()
	fmt.Fprintf(w, "trace core phase: %d queries at %.1f q/s\n", n, coreQPS)
	fmt.Fprintf(w, "split core phase (share of core.execute time %.3fs): ftv filter %.1f%%, iso verify %.1f%%, hit detection %.1f%%, core self %.1f%%\n",
		float64(execTotal)/1e9, pctOf(filterTotal, execTotal), pctOf(isoTotal, execTotal), pctOf(sum(hit), execTotal), pctOf(sum(self), execTotal))
	fmt.Fprintf(w, "split check: ftv filter + iso verify = %.1f%% of core.execute time\n", pctOf(filterTotal+isoTotal, execTotal))
}

func pctOf(part, whole int64) float64 { return 100 * ratio(float64(part), float64(whole)) }
