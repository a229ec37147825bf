package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// buildGCD compiles the daemon the benchmark drives.
func buildGCD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gcd")
	out, err := exec.Command("go", "build", "-o", bin, "graphcache/cmd/gcd").CombinedOutput()
	if err != nil {
		t.Fatalf("building gcd: %v\n%s", err, out)
	}
	return bin
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEndM, perLayerM []benchMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj.EndToEnd, bj.PerLayer
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at a small scale and returns the printed
// output and the parsed result line.
func runTiny(t *testing.T, gcd, workload string, trace bool, tamper func([]int) []int) (string, result) {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 1, trace: trace, gcd: gcd,
		work: t.TempDir(), scale: 0.05, tamper: tamper}
	var out strings.Builder
	rep, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	keep := endToEnd
	if trace {
		keep = perLayer
	}
	if err := rep.print(&out, keep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return out.String(), res
}

type printedMetric struct {
	value float64
	unit  string
}

// printedMetrics parses every "metric <name> <value> <unit> n=<count>"
// line.
func printedMetrics(t *testing.T, out string) map[string]printedMetric {
	t.Helper()
	m := map[string]printedMetric{}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 5 && f[0] == "metric" && strings.HasPrefix(f[4], "n=") {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", sc.Text(), err)
			}
			m[f[1]] = printedMetric{value: v, unit: f[3]}
		}
	}
	return m
}

// TestSmokeEveryMetricPrinted runs each workload tiny, timed and traced,
// and checks that every metric BENCHMARK.json names is printed with its
// unit and carried in the result line.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("boots gcd")
	}
	gcd := buildGCD(t)
	e2e, layers := declared(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			out, res := runTiny(t, gcd, s.name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", s.name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			printed := printedMetrics(t, out)
			if _, ok := printed["error_rate"]; !ok {
				t.Errorf("%s trace=%v: error_rate not printed", s.name, trace)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result carries %d metrics, BENCHMARK.json names %d", s.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if printed[m.Name].unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed with unit %q, want %q", s.name, trace, m.Name, printed[m.Name].unit, m.Unit)
				}
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: result line lacks %s [%s]", s.name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestGateCountsWrongAnswers feeds the gate answers with one id too many
// and checks that the result and error_rate count them as failures.
func TestGateCountsWrongAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("boots gcd")
	}
	gcd := buildGCD(t)
	wrong := func(a []int) []int { return append(slices.Clone(a), 1<<30) }
	for _, name := range []string{"hot", "churn"} {
		out, res := runTiny(t, gcd, name, false, wrong)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: gate passed wrong answers: correct=%v failed=%d\n%s", name, res.Correct, res.Failed, out)
		}
		if er, ok := printedMetrics(t, out)["error_rate"]; !ok || er.value <= 0 {
			t.Errorf("%s: error_rate %v does not count the wrong answers\n%s", name, er.value, out)
		}
	}
}

// TestGenerateDeterministic pins that a seed fixes the inputs.
func TestGenerateDeterministic(t *testing.T) {
	s, _ := specByName("churn")
	s = s.scaled(0.05)
	a, err := generate(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generate(s, 7)
	c, _ := generate(s, 8)
	if a.digest() != b.digest() {
		t.Error("same seed, different inputs")
	}
	if a.digest() == c.digest() {
		t.Error("different seeds, same inputs")
	}
}
