package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"choir"
	"choir/internal/cli"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

// writeTestTrace synthesizes a small single-user trace to path.
func writeTestTrace(t *testing.T, path string, seed uint64) {
	t.Helper()
	writeScenarioTrace(t, path, sim.Scenario{SNRsDB: []float64{15}, Seed: seed})
}

// writeScenarioTrace synthesizes sc at SF7 with 4-byte payloads to path,
// listing every user's payload in the header.
func writeScenarioTrace(t *testing.T, path string, sc sim.Scenario) {
	t.Helper()
	p := choir.DefaultPHY()
	p.SF = lora.SF7
	sc.Params, sc.PayloadLen = p, 4
	samples, payloads := sc.Synthesize()
	h := trace.Header{Params: p, PayloadLen: 4}
	for _, pl := range payloads {
		h.Users = append(h.Users, fmt.Sprintf("%x", pl))
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteFramed(f, h, samples); err != nil {
		t.Fatal(err)
	}
}

// TestRunOrdersOutputAcrossWorkers pins the batch-output contract: report
// sections and error lines appear in argument order and are identical at
// GOMAXPROCS 1 and 4, and a broken trace in the middle of the batch is
// reported in place without aborting the traces after it.
func TestRunOrdersOutputAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dir := t.TempDir()
	good1 := filepath.Join(dir, "a.iq")
	bad := filepath.Join(dir, "broken.iq")
	good2 := filepath.Join(dir, "c.iq")
	good3 := filepath.Join(dir, "d.iq")
	writeTestTrace(t, good1, 1)
	writeTestTrace(t, good2, 2)
	writeTestTrace(t, good3, 3)
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	files := []string{good1, bad, good2, good3}

	runOnce := func(procs int) (string, string, int) {
		runtime.GOMAXPROCS(procs)
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), files, &stdout, &stderr)
		return stdout.String(), stderr.String(), code
	}

	out1, errOut1, code1 := runOnce(1)
	if code1 != 1 {
		t.Errorf("exit code = %d with a broken trace in the batch, want 1", code1)
	}
	if !strings.Contains(errOut1, "broken.iq") {
		t.Errorf("stderr does not name the broken trace:\n%s", errOut1)
	}

	// Headers must appear in argument order, including the failed trace's.
	var headerPos []int
	for _, f := range files {
		p := strings.Index(out1, "== "+f+" ==")
		if p < 0 {
			t.Fatalf("stdout missing section header for %s:\n%s", f, out1)
		}
		headerPos = append(headerPos, p)
	}
	for i := 1; i < len(headerPos); i++ {
		if headerPos[i] < headerPos[i-1] {
			t.Errorf("section headers out of argument order: %v", headerPos)
		}
	}
	// Every good trace must still have decoded despite the failure between
	// them.
	if got := strings.Count(out1, "recovered 1/1 ground-truth payloads"); got != 3 {
		t.Errorf("decoded %d of 3 good traces:\n%s", got, out1)
	}

	out4, errOut4, code4 := runOnce(4)
	if out1 != out4 {
		t.Errorf("stdout differs between GOMAXPROCS 1 and 4\n--- 1 ---\n%s--- 4 ---\n%s", out1, out4)
	}
	if errOut1 != errOut4 {
		t.Errorf("stderr differs between GOMAXPROCS 1 and 4\n--- 1 ---\n%s--- 4 ---\n%s", errOut1, errOut4)
	}
	if code1 != code4 {
		t.Errorf("exit codes differ across widths: %d vs %d", code1, code4)
	}
}

// TestRunCountsIdenticalPayloadsOnce: two users sending the same payload
// are two ground-truth payloads, each recovered at most once.
func TestRunCountsIdenticalPayloadsOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "team.iq")
	writeScenarioTrace(t, path, sim.Scenario{Identical: true, SNRsDB: []float64{20, 20}, Seed: 1})
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "recovered 2/2 ground-truth payloads") {
		t.Errorf("want recovered 2/2:\n%s", stdout.String())
	}
}

// TestRunNegativePayloadLenFailsOneTrace: a header declaring a negative
// payload length is refused when the file is read — the decoder never sees
// the length.
func TestRunNegativePayloadLenFailsOneTrace(t *testing.T) {
	checkOneTraceFails(t, func(h *trace.Header) { h.PayloadLen = -1 }, "lora: payload length out of range: -1 not in [0, 255]")
}

// TestRunOverflowingLengthFailsOneTrace: a header whose payload or preamble
// length would overflow the frame's sample count is refused when the file is
// read, instead of panicking in the decoder.
func TestRunOverflowingLengthFailsOneTrace(t *testing.T) {
	t.Run("payload_len", func(t *testing.T) {
		checkOneTraceFails(t, func(h *trace.Header) { h.PayloadLen = 47_000_000_000_000_000 }, "lora: payload length out of range: 47000000000000000 not in [0, 255]")
	})
	t.Run("preamble_len", func(t *testing.T) {
		checkOneTraceFails(t, func(h *trace.Header) { h.Params.PreambleLen = 1 << 56 }, "lora: preamble length 72057594037927936 > 65535")
	})
}

// checkOneTraceFails decodes a batch of two good traces around a copy of the
// first whose header edit rewrites: the bad trace gets its own error line
// containing want, the rest of the batch still prints, and the exit code is 1.
func checkOneTraceFails(t *testing.T, edit func(*trace.Header), want string) {
	t.Helper()
	dir := t.TempDir()
	good1, bad, good2 := filepath.Join(dir, "a.iq"), filepath.Join(dir, "b.iq"), filepath.Join(dir, "c.iq")
	writeTestTrace(t, good1, 1)
	writeTestTrace(t, good2, 2)
	h, samples, err := trace.ReadFile(good1)
	if err != nil {
		t.Fatal(err)
	}
	edit(&h)
	var buf bytes.Buffer
	if err := trace.WriteFramed(&buf, h, samples); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{good1, bad, good2}, &stdout, &stderr); code != cli.ExitFailed {
		t.Errorf("exit code = %d, want %d", code, cli.ExitFailed)
	}
	if !strings.Contains(stderr.String(), bad+": "+want) {
		t.Errorf("stderr has no error line for %s:\n%s", bad, stderr.String())
	}
	if got := strings.Count(stdout.String(), "recovered 1/1 ground-truth payloads"); got != 2 {
		t.Errorf("decoded %d of the 2 good traces:\n%s", got, stdout.String())
	}
}

// TestRunInterruptedExitsBetween exercises the signal path: a context that
// is already canceled when the batch starts decodes nothing and exits 130,
// the shell's interrupted code, not 1.
func TestRunInterruptedExits130(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "a.iq")
	writeTestTrace(t, tr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	if code := run(ctx, []string{tr}, &stdout, &stderr); code != 130 {
		t.Errorf("exit code = %d with canceled context, want 130", code)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not mention interruption:\n%s", stderr.String())
	}
}

// TestRunUnknownBackendExits2: a -backend not in the table is a usage
// error, refused before any trace is read.
func TestRunUnknownBackendExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-backend", "nope", "missing.iq"}, &stdout, &stderr); code != cli.ExitUsage {
		t.Errorf("exit code = %d, want %d", code, cli.ExitUsage)
	}
	if msg := stderr.String(); !strings.Contains(msg, `unknown backend "nope"`) || strings.Contains(msg, "missing.iq") {
		t.Errorf("stderr %q, want the unknown-backend line and no trace read", msg)
	}
}

func TestRunUsageOnNoArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), nil, &stdout, &stderr); code != 2 {
		t.Errorf("exit code = %d with no arguments, want 2", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Errorf("stderr missing usage line:\n%s", stderr.String())
	}
}
