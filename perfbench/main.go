// Command perfbench is the repository benchmark. It boots the real gcd
// daemon on loopback over a generated dataset, drives it with a closed loop
// of two clients, checks sampled answers against uncached Method M, and
// prints the end-to-end metrics. With --trace 1 it additionally assembles
// the same stack in-process and times the calls into each layer.
//
// Run it through run.sh, which builds gcd and this program from source:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// clients is the number of closed-loop load-generator connections.
const clients = 2

// endToEnd and perLayer name the metrics the result line carries with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
var endToEnd = []string{"qps", "p50_ms", "p99_ms", "setup_s", "rss_mb"}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gcd      string // the gcd binary
	work     string // scratch directory for dataset files
	digests  string // recorded input digests; empty skips the check
	scale    float64
	// tamper corrupts decoded answers before the gate sees them (tests).
	tamper func([]int) []int
}

func main() {
	cfg := config{scale: 1}
	var traceFlag int
	var record string
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload: hot, cold, churn, or all to run the three in turn")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced in-process pass and reports per-layer metrics")
	fs.StringVar(&cfg.gcd, "gcd", "", "path to the gcd binary")
	fs.StringVar(&cfg.work, "work", "", "directory for generated dataset files")
	fs.StringVar(&cfg.digests, "digests", "", "JSON file of recorded input digests")
	fs.StringVar(&record, "record-digests", "", "write input digests for seeds FROM-TO to -digests and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	if record != "" {
		if err := recordDigests(cfg.digests, record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	keep := endToEnd
	if cfg.trace {
		keep = perLayer
	}
	workloads := []string{cfg.workload}
	if cfg.workload == "all" {
		workloads = workloads[:0]
		for _, s := range specs {
			workloads = append(workloads, s.name)
		}
	}
	for _, name := range workloads {
		cfg.workload = name
		rep, err := run(cfg, os.Stdout)
		if err == nil {
			err = rep.print(os.Stdout, keep)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// checkDigest compares the inputs' digest with the recorded one for this
// workload and seed, when one is recorded.
func checkDigest(path string, in *inputs, w io.Writer) error {
	got := in.digest()
	if path == "" {
		fmt.Fprintf(w, "input digest %s (not checked)\n", got)
		return nil
	}
	rec, err := readDigests(path)
	if err != nil {
		return err
	}
	want, ok := rec[in.spec.name][strconv.FormatInt(in.seed, 10)]
	if !ok {
		fmt.Fprintf(w, "input digest %s (no recorded digest for seed %d)\n", got, in.seed)
		return nil
	}
	if want != got {
		return fmt.Errorf("input digest mismatch: workload %s seed %d generated %s, %s records %s; the input generator or graph codec changed, so this run is not comparable",
			in.spec.name, in.seed, got, path, want)
	}
	fmt.Fprintf(w, "input digest %s (matches the recorded digest)\n", got)
	return nil
}

func readDigests(path string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	rec := map[string]map[string]string{}
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	return rec, nil
}

// recordDigests writes the digest of every workload for seeds lo..hi.
func recordDigests(path, seeds string) error {
	loStr, hiStr, _ := strings.Cut(seeds, "-")
	lo, err1 := strconv.ParseInt(loStr, 10, 64)
	hi, err2 := strconv.ParseInt(hiStr, 10, 64)
	if err1 != nil || err2 != nil || hi < lo || path == "" {
		return fmt.Errorf("-record-digests wants FROM-TO and -digests a path, got %q and %q", seeds, path)
	}
	rec := map[string]map[string]string{}
	for _, s := range specs {
		rec[s.name] = map[string]string{}
		for seed := lo; seed <= hi; seed++ {
			in, err := generate(s, seed)
			if err != nil {
				return err
			}
			rec[s.name][strconv.FormatInt(seed, 10)] = in.digest()
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// run generates the inputs and measures one workload.
func run(cfg config, w io.Writer) (*report, error) {
	s, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want hot, cold, churn or all)", cfg.workload)
	}
	if cfg.gcd == "" || cfg.work == "" {
		return nil, errors.New("-gcd and -work are required")
	}
	s = s.scaled(cfg.scale)
	in, err := generate(s, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	digests := cfg.digests
	if cfg.scale < 1 {
		digests = "" // digests are recorded for the full-size inputs only
	}
	if err := checkDigest(digests, in, w); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dsPath := filepath.Join(cfg.work, fmt.Sprintf("%s-seed%d.txt", s.name, cfg.seed))
	if err := os.WriteFile(dsPath, in.dataset, 0o644); err != nil {
		return nil, err
	}
	defer os.Remove(dsPath)
	env, _ := json.Marshal(envStamp(clients, dsPath))
	fmt.Fprintf(w, "env %s\n", env)
	fmt.Fprintf(w, "workload %s seed %d: %d dataset graphs, %d distinct patterns, %d operations\n",
		s.name, cfg.seed, s.datasetSize, len(in.queries), len(in.ops))

	rep := &report{}
	boots := setupBoots
	if cfg.trace {
		boots = 1 // setup_s is an end-to-end metric; the traced run skips it
	}
	timedQPS, err := timedRun(cfg, in, dsPath, boots, rep, w)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := tracedRun(cfg, in, timedQPS, rep, w); err != nil {
			return nil, err
		}
	}
	rep.correct = rep.failed == 0
	rep.add("error_rate", "ratio", rep.errorRate(), rep.attempted)
	return rep, nil
}

// timedRun boots gcd, warms its cache, measures the window and runs the
// correctness gate. It returns the measured qps.
func timedRun(cfg config, in *inputs, dsPath string, boots int, rep *report, w io.Writer) (float64, error) {
	var setups []time.Duration
	var d *daemon
	for b := 0; b < boots; b++ {
		var err error
		if d, err = startDaemon(cfg.gcd, dsPath); err != nil {
			return 0, err
		}
		setups = append(setups, d.setup)
		if b < boots-1 {
			d.stop()
		}
	}
	defer d.stop()

	execs := make([]executor, clients)
	for i := range execs {
		h := newHTTPExec("http://"+d.addr, false)
		defer h.close()
		execs[i] = h
	}
	// Steal time shows how much CPU other tenants of the machine took
	// during the window: the main source of run-to-run spread.
	var steal0, total0, steal1, total1 int64
	win, post, live := loadAndCheck(cfg, in, execs, func(open bool) {
		if open {
			steal0, total0 = cpuTicks()
		} else {
			steal1, total1 = cpuTicks()
		}
	})
	fmt.Fprintf(w, "host: %.1f%% of CPU time was stolen by other tenants during the window\n",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	rss, err := d.peakRSSMB()
	if err != nil {
		return 0, err
	}
	if err := gateResults(in, live, win, post, rep, w); err != nil {
		return 0, err
	}

	qps, blocks := win.trimmedQPS()
	lat := win.readNs
	rep.add("qps", "1/s", qps, blocks)
	rep.add("p50_ms", "ms", ms(pct(lat, 0.50)), len(lat))
	rep.add("p99_ms", "ms", ms(pct(lat, 0.99)), len(lat))
	if len(lat) >= 10000 {
		rep.add("p999_ms", "ms", ms(pct(lat, 0.999)), len(lat))
	}
	if len(win.writeNs) > 0 {
		rep.add("write_p50_ms", "ms", ms(pct(win.writeNs, 0.50)), len(win.writeNs))
		rep.add("write_p99_ms", "ms", ms(pct(win.writeNs, 0.99)), len(win.writeNs))
	}
	rep.add("setup_s", "s", medianDuration(setups).Seconds(), len(setups))
	rep.add("rss_mb", "MB", rss, 1)
	return qps, nil
}

// loadAndCheck runs the warm-up prefix, the timed window and the
// post-window check pass against one stack. window, when set, is called
// with true just before the timed window and with false just after it.
func loadAndCheck(cfg config, in *inputs, execs []executor, window func(bool)) (win, post *loadResult, live *liveSet) {
	s := in.spec
	live = newLiveSet(s.datasetSize)
	warm := drive(pass{in: in, live: live, from: 0, to: s.warmup}, execs)
	p := pass{in: in, live: live, from: s.warmup, to: len(in.ops),
		limit: time.Duration(cfg.seconds * float64(time.Second)), tamper: cfg.tamper}
	if in.readOnly() {
		p.sampleEvery = s.sampleEvery
	}
	if window != nil {
		window(true)
	}
	win = drive(p, execs)
	if window != nil {
		window(false)
	}
	// Warm-up operations count as attempted, and their failures as failed.
	win.reads += warm.reads
	win.writes += warm.writes
	win.failed += warm.failed
	win.errs = append(win.errs, warm.errs...)
	post = checkPass(in, execs[0], s.postCheck, cfg.tamper)
	return win, post, live
}

// gateResults checks the sampled answers against Method M over the final
// dataset and accounts every operation in the report.
func gateResults(in *inputs, live *liveSet, win, post *loadResult, rep *report, w io.Writer) error {
	if win.exhausted {
		fmt.Fprintf(w, "note: the stream ran out after %d operations, before the window ended\n", len(in.ops))
	}
	ref, err := referenceMethod(in, live)
	if err != nil {
		return fmt.Errorf("building the reference: %w", err)
	}
	g := newGate(in, ref)
	bad1, errs1 := g.check(win.samples)
	bad2, errs2 := g.check(post.samples)
	rep.attempted += win.reads + win.writes + post.reads
	rep.failed += win.failed + post.failed + bad1 + bad2
	fmt.Fprintf(w, "gate: %d in-window and %d post-window answers checked against Method M, %d wrong; %d of %d operations failed in transport or status\n",
		len(win.samples), len(post.samples), bad1+bad2, win.failed+post.failed, win.reads+win.writes+post.reads)
	for _, e := range append(append(append(win.errs, post.errs...), errs1...), errs2...) {
		fmt.Fprintln(w, "  failure:", e)
	}
	return nil
}
