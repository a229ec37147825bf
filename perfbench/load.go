package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// executor sends operations to one stack: the gcd daemon over HTTP, or an
// in-process cache. Each load-generator client owns one executor.
type executor interface {
	// query runs q; with decode set it returns the answer ids. n is the
	// response size in bytes (0 for in-process executors).
	query(op int, q *query, decode bool) (answers []int, n int64, err error)
	add(a *addGraph) (id int, err error)
	remove(id int) error
}

// httpExec is one keep-alive connection to a GraphCache HTTP server.
type httpExec struct {
	base   string
	client *http.Client
	// tagOps sends the operation index in an X-Bench-Op header, so a
	// traced handler can match its spans to the client's round trips.
	tagOps bool
}

func newHTTPExec(base string, tagOps bool) *httpExec {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpExec{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tagOps: tagOps}
}

func (h *httpExec) close() { h.client.CloseIdleConnections() }

// do sends one request and hands a 2xx body to read; anything else is an
// error carrying the start of the body.
func (h *httpExec) do(method, path string, body []byte, op int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if h.tagOps {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return read(resp.Body)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (h *httpExec) query(op int, q *query, decode bool) ([]int, int64, error) {
	var answers []int
	var n int64
	err := h.do(http.MethodPost, "/api/query", q.body, op, func(r io.Reader) error {
		cr := &countingReader{r: r}
		if decode {
			var resp struct {
				Answers []int `json:"answers"`
			}
			if err := json.NewDecoder(cr).Decode(&resp); err != nil {
				return fmt.Errorf("decoding answers: %w", err)
			}
			answers = resp.Answers
		}
		_, err := io.Copy(io.Discard, cr)
		n = cr.n
		return err
	})
	return answers, n, err
}

func (h *httpExec) add(a *addGraph) (int, error) {
	var resp struct {
		ID int `json:"id"`
	}
	err := h.do(http.MethodPost, "/api/dataset/graphs", a.body, -1, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&resp)
	})
	return resp.ID, err
}

func (h *httpExec) remove(id int) error {
	return h.do(http.MethodDelete, "/api/dataset/graphs/"+strconv.Itoa(id), nil, -1, func(r io.Reader) error {
		_, err := io.Copy(io.Discard, r)
		return err
	})
}

// liveSet tracks the dataset ids a remove may pick, and logs every write
// that succeeded so the reference dataset can be replayed.
type liveSet struct {
	mu      sync.Mutex
	ids     []int
	added   []addRecord
	removed []int
}

type addRecord struct {
	add int // index into inputs.adds
	id  int // the id the server returned
}

func newLiveSet(n int) *liveSet {
	l := &liveSet{ids: make([]int, n)}
	for i := range l.ids {
		l.ids[i] = i
	}
	return l
}

// take removes and returns the live id pick selects.
func (l *liveSet) take(pick uint32) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ids) == 0 {
		return 0, false
	}
	i := int(pick % uint32(len(l.ids)))
	id := l.ids[i]
	l.ids[i] = l.ids[len(l.ids)-1]
	l.ids = l.ids[:len(l.ids)-1]
	return id, true
}

func (l *liveSet) recordAdd(add, id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ids = append(l.ids, id)
	l.added = append(l.added, addRecord{add: add, id: id})
}

func (l *liveSet) recordRemove(id int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.removed = append(l.removed, id)
}

// sample is one decoded answer list the correctness gate checks.
type sample struct {
	query   int // index into inputs.queries
	answers []int
}

// loadResult is what one closed-loop pass observed.
type loadResult struct {
	reads, writes int // operations attempted
	failed        int
	errs          []string // the first few failures
	readNs        []int64  // round trip of each successful read
	readOp        []int32  // the operation index of each readNs entry
	readEnd       []int64  // when each read completed, since the pass began
	writeNs       []int64
	respBytes     int64
	samples       []sample
	elapsed       time.Duration
	exhausted     bool // the stream ran out before the deadline
}

func (r *loadResult) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.reads += o.reads
	r.writes += o.writes
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < 5 {
			r.errs = append(r.errs, e)
		}
	}
	r.readNs = append(r.readNs, o.readNs...)
	r.readOp = append(r.readOp, o.readOp...)
	r.readEnd = append(r.readEnd, o.readEnd...)
	r.writeNs = append(r.writeNs, o.writeNs...)
	r.respBytes += o.respBytes
	r.samples = append(r.samples, o.samples...)
}

// pass describes one closed-loop pass over a slice of the stream.
type pass struct {
	in   *inputs
	live *liveSet
	// from and to bound the operation indices; limit, when positive, stops
	// the pass once it has run that long.
	from, to int
	limit    time.Duration
	// sampleEvery decodes every sampleEvery-th read for the gate; 0 none.
	sampleEvery int
	// tamper, when set, rewrites decoded answers before they reach the
	// gate. Only the self-tests set it, to prove the gate catches a wrong
	// answer.
	tamper func([]int) []int
}

// drive runs the pass with one client goroutine per executor, each in a
// closed loop: a client sends its next request only after the previous
// reply arrived. Clients share one cursor over the stream.
func drive(p pass, execs []executor) *loadResult {
	var next atomic.Int64
	next.Store(int64(p.from))
	results := make([]*loadResult, len(execs))
	var wg sync.WaitGroup
	start := time.Now()
	var exhausted atomic.Bool
	for c, ex := range execs {
		res := &loadResult{}
		results[c] = res
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if p.limit > 0 && time.Since(start) >= p.limit {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= p.to {
					exhausted.Store(p.limit > 0)
					return
				}
				runOp(p, ex, i, start, res)
			}
		}()
	}
	wg.Wait()
	out := &loadResult{elapsed: time.Since(start), exhausted: exhausted.Load()}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

func runOp(p pass, ex executor, i int, start time.Time, res *loadResult) {
	o := p.in.ops[i]
	switch o.kind {
	case opQuery:
		res.reads++
		decode := p.sampleEvery > 0 && i%p.sampleEvery == 0
		t0 := time.Now()
		answers, n, err := ex.query(i, &p.in.queries[o.arg], decode)
		d := time.Since(t0)
		if err != nil {
			res.fail(err)
			return
		}
		res.readNs = append(res.readNs, int64(d))
		res.readOp = append(res.readOp, int32(i))
		res.readEnd = append(res.readEnd, int64(time.Since(start)))
		res.respBytes += n
		if decode {
			if p.tamper != nil {
				answers = p.tamper(answers)
			}
			res.samples = append(res.samples, sample{query: int(o.arg), answers: answers})
		}
	case opAdd:
		res.writes++
		t0 := time.Now()
		id, err := ex.add(&p.in.adds[o.arg])
		d := time.Since(t0)
		if err != nil {
			res.fail(err)
			return
		}
		res.writeNs = append(res.writeNs, int64(d))
		p.live.recordAdd(int(o.arg), id)
	case opRemove:
		res.writes++
		id, ok := p.live.take(o.arg)
		if !ok {
			res.fail(fmt.Errorf("remove: no live dataset graph left"))
			return
		}
		t0 := time.Now()
		err := ex.remove(id)
		d := time.Since(t0)
		if err != nil {
			res.fail(err)
			return
		}
		res.writeNs = append(res.writeNs, int64(d))
		p.live.recordRemove(id)
	}
}

// qpsBlocks is how many consecutive blocks of completed reads the window
// is cut into for the throughput figure.
const qpsBlocks = 20

// trimmedQPS cuts the window's reads, in completion order, into qpsBlocks
// blocks of equal count, takes each block's rate, and returns the mean of
// the rates after dropping the slowest and the fastest quarter. Trimming
// keeps a burst of load from other tenants of the machine, or one
// pathological query, from moving the figure. A window with too few reads
// falls back to the overall rate.
func (r *loadResult) trimmedQPS() (qps float64, blocks int) {
	n := len(r.readEnd)
	if n < 2*qpsBlocks {
		return float64(n) / r.elapsed.Seconds(), 1
	}
	ends := slices.Sorted(slices.Values(r.readEnd))
	rates := make([]float64, qpsBlocks)
	prev := int64(0)
	for k := range rates {
		lo, hi := k*n/qpsBlocks, (k+1)*n/qpsBlocks
		end := ends[hi-1]
		rates[k] = float64(hi-lo) / (float64(end-prev) / 1e9)
		prev = end
	}
	slices.Sort(rates)
	kept := rates[qpsBlocks/4 : qpsBlocks-qpsBlocks/4]
	total := 0.0
	for _, x := range kept {
		total += x
	}
	return total / float64(len(kept)), len(kept)
}

// checkPass re-sends the first n reads of the stream after the timed
// window, decoding every answer, so the gate can compare them with Method
// M over the dataset as it stands after every write.
func checkPass(in *inputs, ex executor, n int, tamper func([]int) []int) *loadResult {
	res := &loadResult{}
	for i := 0; i < len(in.ops) && len(res.samples)+res.failed < n; i++ {
		o := in.ops[i]
		if o.kind != opQuery {
			continue
		}
		res.reads++
		answers, _, err := ex.query(i, &in.queries[o.arg], true)
		if err != nil {
			res.fail(err)
			continue
		}
		if tamper != nil {
			answers = tamper(answers)
		}
		res.samples = append(res.samples, sample{query: int(o.arg), answers: answers})
	}
	return res
}
