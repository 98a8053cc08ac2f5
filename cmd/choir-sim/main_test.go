package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunFaultSweepTruncate drives the fault sweep end to end through one
// class at one rate: the figure prints a truncate series anchored at
// intensity 0 that reads 0 at full truncation.
func TestRunFaultSweepTruncate(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-exp", "faultsweep", "-fault", "truncate", "-fault-rate", "1"}, &stdout, &stderr)
	if code != exitOK {
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
	if code := run(context.Background(), []string{"-exp", "nope"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("exit %d, want %d (usage)", code, exitUsage)
	}
	if !strings.Contains(stderr.String(), `unknown experiment "nope"`) {
		t.Errorf("stderr does not name the experiment:\n%s", stderr.String())
	}
}
