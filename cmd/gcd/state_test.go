package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stateQueries are distinct small patterns over the generated molecule
// dataset — enough to turn the window (2) twice and leave admitted
// entries behind.
var stateQueries = []string{
	"t # 0\nv 0 0\nv 1 0\ne 0 1\n",
	"t # 0\nv 0 0\nv 1 1\ne 0 1\n",
	"t # 0\nv 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\n",
	"t # 0\nv 0 0\nv 1 1\nv 2 0\ne 0 1\ne 1 2\n",
	"t # 0\nv 0 1\nv 1 0\nv 2 0\nv 3 0\ne 0 1\ne 1 2\ne 2 3\n",
}

func postStateQuery(t *testing.T, base, graph string) map[string]any {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"graph": graph, "type": "subgraph"})
	resp, err := http.Post(base+"/api/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("query response not JSON: %v\n%s", err, raw)
	}
	return out
}

func getStats(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, raw)
	}
	var stats map[string]any
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, raw)
	}
	return stats
}

// Full persistence lifecycle: cold boot with -state, warm the cache, save
// on graceful shutdown; reboot restores the entries lazily (no answer
// bodies faulted until a query needs them) and the restored entries
// answer with exact hits.
func TestDaemonStateSaveRestore(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "cache.gcstate")

	base, out, shutdown := bootDaemon(t, "-state", statePath)
	if !strings.Contains(out.String(), "starting cold") {
		t.Errorf("first boot did not report a cold start:\n%s", out.String())
	}
	for _, q := range stateQueries {
		postStateQuery(t, base, q)
	}
	warmEntries := getStats(t, base)["cachedEntries"].(float64)
	if warmEntries == 0 {
		t.Fatal("workload admitted no entries; the lifecycle test needs a warm cache")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !strings.Contains(out.String(), "saved") {
		t.Errorf("no save banner in output:\n%s", out.String())
	}
	if fi, err := os.Stat(statePath); err != nil || fi.Size() == 0 {
		t.Fatalf("state file after shutdown: %v (size %v)", err, fi)
	}

	base, out, shutdown = bootDaemon(t, "-state", statePath)
	defer shutdown()
	if !strings.Contains(out.String(), "restored") {
		t.Fatalf("second boot did not restore:\n%s", out.String())
	}
	stats := getStats(t, base)
	if got := stats["cachedEntries"].(float64); got != warmEntries {
		t.Fatalf("restored %v entries, want %v", got, warmEntries)
	}
	// Lazy restore: booting and serving stats reads no answer bodies.
	if got := stats["stateBodyFaults"].(float64); got != 0 {
		t.Fatalf("boot faulted %v answer bodies before any query", got)
	}
	// A warmed query answers from cache, faulting its body in.
	out2 := postStateQuery(t, base, stateQueries[0])
	if !out2["exactHit"].(bool) {
		t.Error("restored entry did not produce an exact hit")
	}
	if got := getStats(t, base)["stateBodyFaults"].(float64); got == 0 {
		t.Error("exact hit on a restored entry faulted no answer body")
	}
}

// POST /api/state/save persists on demand when -state is set and answers
// 503 when it is not.
func TestDaemonStateSaveEndpoint(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "cache.gcstate")
	base, _, shutdown := bootDaemon(t, "-state", statePath)
	for _, q := range stateQueries {
		postStateQuery(t, base, q)
	}
	resp, err := http.Post(base+"/api/state/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("save status %d: %s", resp.StatusCode, raw)
	}
	if fi, err := os.Stat(statePath); err != nil || fi.Size() == 0 {
		t.Fatalf("state file after save: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	base, _, shutdown = bootDaemon(t)
	defer shutdown()
	resp, err = http.Post(base+"/api/state/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("save without -state: status %d, want 503", resp.StatusCode)
	}
}

// A corrupt (or foreign) state file must never take the daemon down: it
// boots with an empty cache and says why.
func TestDaemonCorruptStateFileIgnored(t *testing.T) {
	// A valid snapshot saved by a daemon over a 30-graph dataset is foreign
	// to one over 40 graphs.
	foreignPath := filepath.Join(t.TempDir(), "foreign.gcs3")
	base, _, shutdown := bootDaemon(t, "-state", foreignPath)
	for _, q := range stateQueries {
		postStateQuery(t, base, q)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	foreign, err := os.ReadFile(foreignPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name     string
		contents string
		args     []string
		reason   string // expected in the banner's error, if non-empty
	}{
		{name: "junk", contents: "not a state file at all"},
		{name: "bad-binary", contents: "GCS3" + strings.Repeat("\x00", 80)},
		{name: "bad-text-v2", contents: "gcstate 2 30 1\nentry 0 extra junk\n", reason: "retired v2 text format"},
		{name: "foreign-dataset", contents: string(foreign), args: []string{"-generate", "40"}, reason: "30-graph dataset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			statePath := filepath.Join(t.TempDir(), "cache.gcstate")
			if err := os.WriteFile(statePath, []byte(tc.contents), 0o644); err != nil {
				t.Fatal(err)
			}
			base, out, shutdown := bootDaemon(t, append(tc.args, "-state", statePath)...)
			defer shutdown()
			if !strings.Contains(out.String(), "ignoring state file") {
				t.Errorf("no corrupt-state banner:\n%s", out.String())
			}
			if !strings.Contains(out.String(), tc.reason) {
				t.Errorf("banner does not say %q:\n%s", tc.reason, out.String())
			}
			stats := getStats(t, base)
			if got := stats["cachedEntries"].(float64); got != 0 {
				t.Errorf("corrupt restore left %v entries", got)
			}
			// The daemon still serves queries.
			postStateQuery(t, base, stateQueries[0])
		})
	}
}
