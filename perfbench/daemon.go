package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one gcd process serving on loopback.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // launch until gcd reported it was listening
	done  chan error    // receives cmd.Wait's result once
}

// gcdArgs are the flags the benchmark passes; every cache flag keeps its
// default (HD, capacity 50, window 10, 4 shards, GGSX L4).
func gcdArgs(dataset string) []string {
	return []string{"-addr", "127.0.0.1:0", "-dataset", dataset}
}

// startDaemon launches gcd and waits until it prints its listen address,
// which it does after parsing the dataset and building the GGSX index.
func startDaemon(bin, dataset string) (*daemon, error) {
	cmd := exec.Command(bin, gcdArgs(dataset)...)
	cmd.Stderr = os.Stderr
	// If this process dies without stopping the daemon, the kernel kills
	// the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gcd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		const prefix = "gcd: listening on "
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, prefix) {
				ready <- strings.TrimPrefix(line, prefix)
			}
		}
		// Drain to EOF so gcd never blocks on a full pipe, then reap it.
		_, _ = io.Copy(io.Discard, stdout)
		d.done <- cmd.Wait()
	}()
	select {
	case addr := <-ready:
		d.setup = time.Since(start)
		d.addr = addr
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("gcd exited before listening: %v", err)
	case <-time.After(90 * time.Second):
		_ = cmd.Process.Kill()
		<-d.done
		return nil, errors.New("gcd did not start listening within 90s")
	}
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks gcd to shut down gracefully and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
