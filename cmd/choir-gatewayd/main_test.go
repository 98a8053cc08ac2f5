package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer for daemon stderr/stdout.
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

// sf7 is the PHY every trace in these tests is recorded at.
func sf7() lora.Params {
	p := lora.DefaultParams()
	p.SF = lora.SF7
	return p
}

// writeTrace renders one SF7 collision trace into dir.
func writeTrace(t *testing.T, dir, name string, scSeed uint64) string {
	t.Helper()
	sc := sim.Scenario{Params: sf7(), PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: scSeed}
	sig, _ := sc.Synthesize()
	return writeSamples(t, dir, name, sig)
}

// writeSamples writes sig into dir as an SF7 trace file.
func writeSamples(t *testing.T, dir, name string, sig []complex128) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Write(f, trace.Header{Params: sf7(), PayloadLen: 4}, sig); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFileMode pins file mode: ingest a directory, decode
// everything, print one terminal outcome per frame, exit 0.
func TestRunFileMode(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "a.iq", 1)
	writeTrace(t, dir, "b.iq", 2)
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{dir}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	if n := strings.Count(stdout.String(), "frame "); n != 2 {
		t.Errorf("got %d outcome lines, want 2\nstdout: %s", n, stdout.String())
	}
	if !strings.Contains(stderr.String(), "accepted 2, decoded 2") {
		t.Errorf("summary missing from stderr: %s", stderr.String())
	}
}

// TestRunJunkBurstCostsNothingLater pins that a frame's outcome does not
// depend on the frames before it. At default flags, a dozen captures too
// short for one preamble symbol each fail after trying every rung once, and
// the two good captures behind them still decode.
func TestRunJunkBurstCostsNothingLater(t *testing.T) {
	dir := t.TempDir()
	const n = 12
	for i := 0; i < n; i++ {
		writeSamples(t, dir, fmt.Sprintf("a-short%02d.iq", i), make([]complex128, 8))
	}
	writeTrace(t, dir, "b-good1.iq", 1)
	writeTrace(t, dir, "b-good2.iq", 2)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workers", "1", dir}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if got := strings.Count(out, "failed after 3 attempt(s)"); got != n {
		t.Errorf("%d short frames failed after every rung, want %d\nstdout: %s", got, n, out)
	}
	if got := strings.Count(out, ": decoded "); got != 2 {
		t.Errorf("%d good frames decoded after the burst, want 2\nstdout: %s", got, out)
	}
}

// TestRunUsage pins the usage exit code, including for the retry, backoff,
// breaker and seed flags that no longer exist: a script still passing them
// fails loudly instead of running with a knob that does nothing.
func TestRunUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != exitUsage {
		t.Fatalf("exit = %d, want %d", code, exitUsage)
	}
	for _, argv := range [][]string{
		{"-shed-policy", "bogus"},
		{"-max-retries", "2"},
		{"-backoff", "1ms"},
		{"-breaker-threshold", "0"},
		{"-breaker-cooldown", "4"},
		{"-seed", "3"},
	} {
		if code := run(context.Background(), append(argv, "x.iq"), &stdout, &stderr); code != exitUsage {
			t.Errorf("%v exit = %d, want %d", argv, code, exitUsage)
		}
	}
}

// TestRunInterruptedExits130 pins the signal path: a dead context stops
// ingest, the queue still drains, and the daemon exits 130.
func TestRunInterruptedExits130(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "a.iq", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	code := run(ctx, []string{dir}, &stdout, &stderr)
	if code != exitInterrupted {
		t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr missing interrupted notice: %s", stderr.String())
	}
}

// TestRunTCPMode drives the daemon end to end over TCP with default flags:
// submit one framed trace in a single write, read the accept reply, watch
// its outcome print, then shut down via the signal context and expect exit
// 130 with balanced accounting.
func TestRunTCPMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen", "127.0.0.1:0"}, &stdout, &stderr)
	}()

	// The bound address is announced on stderr.
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "choir-gatewayd: listening on "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address\nstderr: %s", stderr.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: 1}
	sig, _ := sc.Synthesize()
	if err := trace.WriteFramed(conn, trace.Header{Params: p, PayloadLen: 4}, sig); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	conn.Close()
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}

	cancel()
	select {
	case code := <-exit:
		if code != exitInterrupted {
			t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after shutdown signal")
	}
	if !strings.Contains(stderr.String(), "accepted 1, decoded 1") {
		t.Errorf("summary missing from stderr: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "frame 1") {
		t.Errorf("outcome line missing from stdout: %s", stdout.String())
	}
}

// TestRunTCPStreamMode drives the framed streaming listener end to end:
// the frame is acknowledged as soon as its header lands, the decode
// finishes after the remaining samples stream in, and shutdown stays
// clean with balanced accounting.
func TestRunTCPStreamMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run(ctx, []string{"-listen", "127.0.0.1:0", "-conn-timeout", "5s"}, &stdout, &stderr)
	}()

	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" && time.Now().Before(deadline) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "choir-gatewayd: listening on "); ok {
				addr = strings.TrimSpace(rest)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its address\nstderr: %s", stderr.String())
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: 1}
	sig, _ := sc.Synthesize()
	var fb bytes.Buffer
	if err := trace.WriteFramed(&fb, trace.Header{Params: p, PayloadLen: 4}, sig); err != nil {
		t.Fatal(err)
	}
	b := fb.Bytes()
	// Send the preface and half the samples, expect the admission reply
	// before delivering the rest.
	if _, err := conn.Write(b[:len(b)/2]); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(reply, "accepted ") {
		t.Fatalf("reply = %q (%v), want accepted <id>", reply, err)
	}
	if _, err := conn.Write(b[len(b)/2:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// Wait for the decode to print before shutting down, so the summary
	// check is deterministic.
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(stdout.String(), "frame 1") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case code := <-exit:
		if code != exitInterrupted {
			t.Fatalf("exit = %d, want %d\nstderr: %s", code, exitInterrupted, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after shutdown signal")
	}
	if !strings.Contains(stderr.String(), "accepted 1, decoded 1") {
		t.Errorf("summary missing from stderr: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "frame 1") {
		t.Errorf("outcome line missing from stdout: %s", stdout.String())
	}
}
