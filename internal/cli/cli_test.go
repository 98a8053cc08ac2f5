package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"choir/internal/obs"
)

// start parses argv into a fresh Command and starts it.
func start(t *testing.T, argv ...string) (stop func(), stderr *bytes.Buffer) {
	t.Helper()
	stderr = new(bytes.Buffer)
	c := New("cli-test", stderr)
	if err := c.Parse(argv); err != nil {
		t.Fatal(err)
	}
	stop, err := c.Start()
	if err != nil {
		t.Fatal(err)
	}
	return stop, stderr
}

// readSnapshot reads a dumped snapshot and returns one counter of it.
func readSnapshot(t *testing.T, data []byte, counter string) int64 {
	t.Helper()
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, data)
	}
	return snap.Counters[counter]
}

func TestStartStopsDebugServer(t *testing.T) {
	defer obs.Disable()
	stop, stderr := start(t, "-debug-addr", "127.0.0.1:0")
	if !obs.Enabled() {
		t.Error("-debug-addr did not enable recording")
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(stderr.String()), "debug server listening on http://")
	if !ok {
		t.Fatalf("no listening notice on stderr: %q", stderr.String())
	}
	addr, _, _ = strings.Cut(addr, "/")
	stop()
	stop() // harmless twice
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Error("debug server still accepting connections after stop")
	}
	if strings.Contains(stderr.String(), "{") {
		t.Errorf("-debug-addr alone dumped a snapshot:\n%s", stderr.String())
	}
}

func TestStartDumpsToFile(t *testing.T) {
	defer obs.Disable()
	out := filepath.Join(t.TempDir(), "metrics.json")
	stop, _ := start(t, "-metrics", "-metrics-out", out)
	if !obs.Enabled() {
		t.Fatal("-metrics did not enable recording")
	}
	obs.NewCounter("clitest.count").Inc()
	stop()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := readSnapshot(t, data, "clitest.count"); got != 1 {
		t.Errorf("dumped counter = %d, want 1", got)
	}
}

// TestStartMetricsOutImpliesMetrics: naming a snapshot destination asks for
// a snapshot, as -debug-addr asks for recording; -metrics is not needed.
func TestStartMetricsOutImpliesMetrics(t *testing.T) {
	defer obs.Disable()
	out := filepath.Join(t.TempDir(), "metrics.json")
	stop, _ := start(t, "-metrics-out", out)
	if !obs.Enabled() {
		t.Fatal("-metrics-out did not enable recording")
	}
	obs.NewCounter("clitest.implied").Inc()
	stop()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("-metrics-out without -metrics wrote nothing: %v", err)
	}
	if got := readSnapshot(t, data, "clitest.implied"); got != 1 {
		t.Errorf("dumped counter = %d, want 1", got)
	}

	stop, stderr := start(t, "-metrics-out", "-")
	obs.NewCounter("clitest.implied").Inc()
	stop()
	if got := readSnapshot(t, stderr.Bytes(), "clitest.implied"); got != 2 {
		t.Errorf("-metrics-out - dumped counter = %d to stderr, want 2", got)
	}
}

// TestStartRefusesUnwritableMetricsOut: Start creates the -metrics-out
// file, so a path that cannot be written fails the command before it does
// any work. The parent created the file in stop, after the work, and the
// command exited 0 without its snapshot.
func TestStartRefusesUnwritableMetricsOut(t *testing.T) {
	defer obs.Disable()
	c := New("cli-test", new(bytes.Buffer))
	if err := c.Parse([]string{"-metrics-out", filepath.Join(t.TempDir(), "missing", "metrics.json")}); err != nil {
		t.Fatal(err)
	}
	if stop, err := c.Start(); err == nil {
		stop()
		t.Fatal("Start accepted a -metrics-out path that cannot be created")
	}
}

func TestStartDisabledIsNoOp(t *testing.T) {
	obs.Disable()
	stop, stderr := start(t)
	stop()
	if obs.Enabled() {
		t.Error("no observability flag, yet recording is on")
	}
	if stderr.Len() != 0 {
		t.Errorf("no observability flag, yet stderr reads %q", stderr.String())
	}
}

// TestExitIsInterruptedIffContextFired: whatever code the work reached, a
// fired context turns it into ExitInterrupted with one notice, and only a
// fired context does.
func TestExitIsInterruptedIffContextFired(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, code := range []int{ExitOK, ExitFailed, ExitUsage} {
		var stderr bytes.Buffer
		c := New("cli-test", &stderr)
		if got := c.Exit(context.Background(), code); got != code || stderr.Len() != 0 {
			t.Errorf("live context: Exit(%d) = %d, stderr %q", code, got, stderr.String())
		}
		if got := c.Exit(canceled, code); got != ExitInterrupted || stderr.String() != "cli-test: interrupted\n" {
			t.Errorf("fired context: Exit(%d) = %d, stderr %q", code, got, stderr.String())
		}
	}
}
