package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report is the outcome of one run.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	correct   bool
}

func (r *report) add(name, unit string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, n: n})
}

func (r *report) get(name string) (metric, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m, true
		}
	}
	return metric{}, false
}

// errorRate is failed operations over attempted ones.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// print writes every metric by name, unit and sample count, then the
// result line: one JSON object carrying the metrics listed in keep.
func (r *report) print(w io.Writer, keep []string) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %16.6f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, name := range keep {
		m, ok := r.get(name)
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out.Metrics[name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// pct returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, sorting xs.
func pct(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if !slices.IsSorted(xs) {
		slices.Sort(xs)
	}
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return float64(sum(xs)) / float64(len(xs))
}

func ms(ns int64) float64   { return float64(ns) / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]int64, len(ds))
	for i, d := range ds {
		xs[i] = int64(d)
	}
	return time.Duration(pct(xs, 0.5))
}

// envStamp describes the machine and configuration a result came from.
func envStamp(clients int, dataset string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"clients":    clients,
		"gcd_flags":  strings.Join(gcdArgs(dataset), " "),
	}
}

// cpuTicks reads the machine's cumulative stolen and total CPU ticks from
// /proc/stat; both are 0 where it is unavailable.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	for i, field := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(field, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
