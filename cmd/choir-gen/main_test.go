package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"choir/internal/cli"
	"choir/internal/trace"
)

// TestRunWritesReadableTrace: the trace run writes reads back with the
// header it was written with, one ground-truth payload per user.
func TestRunWritesReadableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.iq")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-users", "3", "-payload", "6", "-seed", "4", "-out", out}, &stdout, &stderr); code != cli.ExitOK {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	h, samples, err := trace.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Users) != 3 || h.PayloadLen != 6 || len(samples) == 0 {
		t.Fatalf("read back %d users, payload %d, %d samples; want 3 users, payload 6", len(h.Users), h.PayloadLen, len(samples))
	}
	for i, u := range h.Users {
		if len(u) != 2*6 {
			t.Errorf("user %d payload %q is not 6 hex bytes", i, u)
		}
	}
	if want := fmt.Sprintf("wrote %s: 3 users at 15.0 dB, %d IQ samples", out, len(samples)); !strings.HasPrefix(stdout.String(), want) {
		t.Errorf("stdout %q does not start %q", stdout.String(), want)
	}
}

// TestRunRefusesBadSettings: a setting no reader accepts fails with one line
// before anything is written. A bad count, a payload length the trace format
// cannot carry, or an -snr that synthesizes non-finite samples exits 1 and
// still flushes the metrics snapshot; a non-finite -snr is a usage error,
// refused before the command starts. The parent panicked on -payload -1,
// wrote a trace every reader refuses on -payload 300, -snr NaN and
// -snr 1e300, and lost the snapshot on -users 0.
func TestRunRefusesBadSettings(t *testing.T) {
	for _, tc := range []struct {
		argv []string
		code int
		want string
	}{
		{[]string{"-users", "0"}, cli.ExitFailed, "-users 0 < 1"},
		{[]string{"-users", "-2"}, cli.ExitFailed, "-users -2 < 1"},
		{[]string{"-payload", "-1"}, cli.ExitFailed, "-payload: lora: payload length out of range: -1 not in [0, 255]"},
		{[]string{"-payload", "300"}, cli.ExitFailed, "-payload: lora: payload length out of range: 300 not in [0, 255]"},
		{[]string{"-snr", "1e300"}, cli.ExitFailed, "-snr 1e+300 synthesizes non-finite sample 0 = (+Inf+Infi)"},
		{[]string{"-snr", "NaN"}, cli.ExitUsage, "-snr NaN is not a finite dB value"},
		{[]string{"-snr", "-Inf"}, cli.ExitUsage, "-snr -Inf is not a finite dB value"},
	} {
		dir := t.TempDir()
		out, snap := filepath.Join(dir, "a.iq"), filepath.Join(dir, "metrics.json")
		var stdout, stderr bytes.Buffer
		argv := append(tc.argv, "-out", out, "-metrics", "-metrics-out", snap)
		if code := run(context.Background(), argv, &stdout, &stderr); code != tc.code {
			t.Errorf("%q: exit %d, want %d", tc.argv, code, tc.code)
		}
		if msg := stderr.String(); msg != "choir-gen: "+tc.want+"\n" {
			t.Errorf("%q: stderr %q, want the one line %q", tc.argv, msg, tc.want)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%q: wrote a trace (stat: %v)", tc.argv, err)
		}
		if tc.code == cli.ExitUsage {
			continue
		}
		data, err := os.ReadFile(snap)
		if err != nil || !json.Valid(data) {
			t.Errorf("%q: no metrics snapshot flushed (%v)", tc.argv, err)
		}
	}
}

// TestRunInterruptedExits130: a context that fired before the trace is
// written writes no trace and exits 130, not 1.
func TestRunInterruptedExits130(t *testing.T) {
	out := filepath.Join(t.TempDir(), "a.iq")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{"-out", out}, &stdout, &stderr); code != cli.ExitInterrupted {
		t.Errorf("exit %d with a canceled context, want %d", code, cli.ExitInterrupted)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not mention interruption:\n%s", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("an interrupted run wrote a trace (stat: %v)", err)
	}
}
