package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/cli"
)

// TestRunFaultSweepTruncate drives the fault sweep end to end through one
// class at one rate: the figure prints a truncate series anchored at
// intensity 0 that reads 0 at full truncation.
func TestRunFaultSweepTruncate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "faultsweep", "-fault", "truncate", "-fault-rate", "1"}, &stdout, &stderr)
	if code != cli.ExitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 5 || lines[1] != "fault intensity\ttruncate" {
		t.Fatalf("want a title, a truncate header, two rows and the axis note; got:\n%s", stdout.String())
	}
	if !strings.HasPrefix(lines[2], "0\t") {
		t.Errorf("first row %q is not the zero-intensity anchor", lines[2])
	}
	if lines[3] != "1\t0" {
		t.Errorf("full truncation row %q, want \"1\\t0\"", lines[3])
	}
}

// TestRunUnknownExperimentExits2: an unknown -exp is a usage error.
func TestRunUnknownExperimentExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "nope"}, &stdout, &stderr); code != cli.ExitUsage {
		t.Fatalf("exit %d, want %d (usage)", code, cli.ExitUsage)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr does not name the experiment:\n%s", stderr.String())
	}
}

// TestRunSharedBadSettingOneError: a setting every figure cell shares, bad
// in all of them, is reported once, as one line naming the first cell.
func TestRunSharedBadSettingOneError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig8d", "-slots", "-5"}, &stdout, &stderr); code != cli.ExitFailed {
		t.Fatalf("exit %d, want %d (failed)", code, cli.ExitFailed)
	}
	msg := strings.TrimSuffix(stderr.String(), "\n")
	if strings.Contains(msg, "\n") || strings.Count(msg, "Slots -5") != 1 || !strings.Contains(msg, "figure cell 0 of ") {
		t.Errorf("stderr is not one line naming the setting and the first cell:\n%s", stderr.String())
	}
}

// TestRunRejectsBadCounts: a count no run can use fails with one line, as
// -nodes 0 does, instead of running as if a default had been asked for. The
// deleted driver switch and the old comparison switch (now -exp compare) are
// unknown flags, usage errors.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		code int
		want string
	}{
		{[]string{"-exp", "city", "-nodes", "0"}, cli.ExitFailed, "bad -nodes entry"},
		{[]string{"-exp", "interfere", "-foreign-networks", "-1"}, cli.ExitFailed, "-foreign-networks -1 < 0"},
		{[]string{"-exp", "compare", "-trials", "-1"}, cli.ExitFailed, "-trials -1 < 0"},
		{[]string{"-exp", "city", "-engine", "slot"}, cli.ExitUsage, "flag provided but not defined"},
		{[]string{"-compare-backends"}, cli.ExitUsage, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc.argv, &stdout, &stderr); code != tc.code {
			t.Errorf("%q: exit %d, want %d; stderr:\n%s", tc.argv, code, tc.code, stderr.String())
			continue
		}
		msg := strings.TrimSuffix(stderr.String(), "\n")
		if !strings.Contains(msg, tc.want) || tc.code == cli.ExitFailed && strings.Contains(msg, "\n") {
			t.Errorf("%q: stderr does not say %q (on one line, for a failure):\n%s", tc.argv, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: printed %q", tc.argv, stdout.String())
		}
	}
}

// TestRunInterruptedExits130: a context that fired before the experiment
// ran exits 130, the shell's interrupted code, not 1.
func TestRunInterruptedExits130(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-exp", "fig8d", "-slots", "100"}, &stdout, &stderr); code != cli.ExitInterrupted {
		t.Fatalf("exit %d with a canceled context, want %d; stderr:\n%s", code, cli.ExitInterrupted, stderr.String())
	}
	if !strings.HasSuffix(stderr.String(), "choir-sim: interrupted\n") {
		t.Errorf("stderr does not end with the interrupted notice:\n%s", stderr.String())
	}
}

// TestRunMetricsOutImpliesMetrics: -metrics-out alone writes the snapshot,
// as -debug-addr alone turns recording on; the parent wrote nothing
// without -metrics.
func TestRunMetricsOutImpliesMetrics(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig9a", "-metrics-out", out}, &stdout, &stderr); code != cli.ExitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("-metrics-out without -metrics wrote no snapshot: %v", err)
	}
	if !json.Valid(data) {
		t.Errorf("snapshot is not JSON:\n%s", data)
	}
}

// TestRunUnwritableMetricsOutFailsFirst: a -metrics-out path that cannot be
// created exits 1 before the experiment runs. The parent ran the whole
// experiment, reported the failed dump and exited 0.
func TestRunUnwritableMetricsOutFailsFirst(t *testing.T) {
	out := filepath.Join(t.TempDir(), "missing", "metrics.json")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-exp", "fig9a", "-metrics-out", out}, &stdout, &stderr); code != cli.ExitFailed {
		t.Errorf("exit %d, want %d", code, cli.ExitFailed)
	}
	if stdout.Len() != 0 {
		t.Errorf("the experiment ran:\n%s", stdout.String())
	}
	if msg := stderr.String(); !strings.HasPrefix(msg, "choir-sim: open ") || strings.Count(msg, "\n") != 1 {
		t.Errorf("stderr %q, want the one line naming the failed open", msg)
	}
}
