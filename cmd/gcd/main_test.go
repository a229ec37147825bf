package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer the daemon's stdout is captured in
// while the test polls it for the bound address.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// bootDaemon starts run() on a random port and returns the base URL, the
// captured output, and a shutdown function that waits for a clean exit.
func bootDaemon(t *testing.T, extraArgs ...string) (string, *syncBuffer, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	args := append([]string{"-addr", "127.0.0.1:0", "-generate", "30", "-seed", "11", "-window", "2"}, extraArgs...)
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, out) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], out, func() error {
				cancel()
				select {
				case err := <-done:
					return err
				case <-time.After(10 * time.Second):
					return fmt.Errorf("daemon did not exit after shutdown")
				}
			}
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v\noutput: %s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never reported its address\noutput: %s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Smoke: gcd boots on a random port, answers a query and the stats
// endpoint (including the new index counters), and exits cleanly on
// context cancellation.
func TestDaemonBootQueryShutdown(t *testing.T) {
	base, out, shutdown := bootDaemon(t)

	body := strings.NewReader(`{"graph": "t # 0\nv 0 1\nv 1 2\ne 0 1\n", "type": "subgraph"}`)
	resp, err := http.Post(base+"/api/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	qb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, qb)
	}

	resp, err = http.Get(base + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d: %s", resp.StatusCode, sb)
	}
	var stats map[string]any
	if err := json.Unmarshal(sb, &stats); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, sb)
	}
	if got, ok := stats["queries"].(float64); !ok || got != 1 {
		t.Errorf("stats queries = %v, want 1", stats["queries"])
	}
	for _, key := range []string{"hitIndexPruned", "hitFullChecks", "hitScanEntries", "windowTurns", "shards"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("stats missing %q:\n%s", key, sb)
		}
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if s := out.String(); !strings.Contains(s, "bye") {
		t.Errorf("no shutdown banner in output:\n%s", s)
	}
}

// -pprof mounts the profiling endpoints without stealing any API route;
// without the flag /debug/pprof/ must not exist.
func TestDaemonPprofFlag(t *testing.T) {
	base, _, shutdown := bootDaemon(t, "-pprof")
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/api/stats"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with -pprof: status %d, want 200", path, resp.StatusCode)
		}
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	base, _, shutdown = bootDaemon(t)
	resp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ served without -pprof; profiling must be opt-in")
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-policy", "nope"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run(context.Background(), []string{"-dataset", "/does/not/exist"}, &out); err == nil {
		t.Error("missing dataset file accepted")
	}
}
