package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"choir/internal/gateway/journal"
)

// TestMain doubles as the crash-harness child: when CHOIR_GATEWAYD_CHILD
// is set, the test binary stops being a test binary and becomes
// choir-gatewayd itself — same signal context, same run() — so the crash
// tests can SIGKILL a real process mid-decode instead of simulating death
// in-process.
func TestMain(m *testing.M) {
	if os.Getenv("CHOIR_GATEWAYD_CHILD") == "1" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	reOutcome = regexp.MustCompile(`^frame (\d+) \(([^)]*)\): `)
	reNotice  = regexp.MustCompile(`^frame (\d+): completed before restart$`)
)

// lifeResult is one daemon life's observable record: which frames printed
// a terminal outcome line (and whether it carried the replayed mark),
// which were announced as completed before restart, and how the process
// ended.
type lifeResult struct {
	outcomes map[uint64]string // id -> source annotation ("trace", "journal, replayed", ...)
	notices  map[uint64]bool
	killed   bool
	exitCode int
	stdout   []string
	stderr   string
}

// runLife executes one child daemon life. With killAfterOutcome set, the
// child is SIGKILLed as soon as the current life prints its first fresh
// outcome line — after the restart notices, so those are always captured —
// which is the tightest moment death can land mid-drain. A child that
// finishes before the kill fires is recorded as a clean exit.
func runLife(t *testing.T, killAfterOutcome bool, args ...string) *lifeResult {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CHOIR_GATEWAYD_CHILD=1")
	var stderr syncBuffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	res := &lifeResult{outcomes: map[uint64]string{}, notices: map[uint64]bool{}}
	var mu sync.Mutex
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		sc := bufio.NewScanner(stdout)
		killedOnce := false
		for sc.Scan() {
			line := sc.Text()
			mu.Lock()
			res.stdout = append(res.stdout, line)
			if m := reNotice.FindStringSubmatch(line); m != nil {
				id, _ := strconv.ParseUint(m[1], 10, 64)
				if res.notices[id] {
					t.Errorf("frame %d noticed twice in one life", id)
				}
				res.notices[id] = true
			} else if m := reOutcome.FindStringSubmatch(line); m != nil {
				id, _ := strconv.ParseUint(m[1], 10, 64)
				if _, dup := res.outcomes[id]; dup {
					t.Errorf("frame %d printed two outcome lines in one life", id)
				}
				res.outcomes[id] = m[2]
				if killAfterOutcome && !killedOnce {
					killedOnce = true
					_ = cmd.Process.Kill()
				}
			}
			mu.Unlock()
		}
	}()

	// Drain stdout to EOF before Wait: Wait closes the pipe, and racing it
	// against the scanner can drop the tail of the child's output.
	timedOut := false
	select {
	case <-scanDone:
	case <-time.After(60 * time.Second):
		timedOut = true
		_ = cmd.Process.Kill()
		<-scanDone
	}
	switch err := cmd.Wait(); {
	case timedOut:
		t.Fatal("child daemon did not exit within 60s")
	case err == nil:
		res.exitCode = 0
	default:
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("child wait: %v", err)
		}
		res.exitCode = ee.ExitCode()
		if st, ok := ee.Sys().(syscall.WaitStatus); ok && st.Signaled() {
			res.killed = true
		}
	}
	res.stderr = stderr.String()
	return res
}

// checkLives asserts the cross-life exactly-once contract over a sequence
// of daemon lives sharing one journal: every frame observed anywhere has
// at most one outcome line across all lives, every frame with no outcome
// line has a completed-before-restart notice, and nothing is left in the
// journal afterwards.
func checkLives(t *testing.T, jdir string, lives []*lifeResult) {
	t.Helper()
	outcomeCount := map[uint64]int{}
	for li, life := range lives {
		for id, src := range life.outcomes {
			outcomeCount[id]++
			// Every life after the first ingests nothing fresh, so its
			// outcomes must all be journal replays and say so.
			if li > 0 && src != "journal, replayed" {
				t.Errorf("life %d: frame %d outcome source %q, want \"journal, replayed\"", li+1, id, src)
			}
		}
	}
	for id, n := range outcomeCount {
		if n > 1 {
			t.Errorf("frame %d printed %d outcome lines across lives (want at most 1)", id, n)
		}
	}
	// Every admitted frame must have a terminal record somewhere. An
	// observed ID always does by construction (it was observed as an
	// outcome or notice); an admitted-but-unobserved frame would still be
	// sitting in the journal as incomplete or completed, so an empty
	// journal after the final clean life closes the set.
	incomplete, completed, _, err := journal.Scan(jdir)
	if err != nil {
		t.Fatalf("final journal scan: %v", err)
	}
	if len(incomplete) != 0 || len(completed) != 0 {
		t.Errorf("journal not empty after final clean life: %d incomplete, %d completed",
			len(incomplete), len(completed))
	}
}

// TestCrashRestartExactlyOnce is the headline durability proof: a real
// choir-gatewayd process is SIGKILLed mid-decode, restarted on the same
// journal, and every frame it admitted gets exactly one terminal outcome
// across the two lives — replayed frames decode once with the replayed
// mark, frames that settled just before death get a notice instead of a
// second decode.
func TestCrashRestartExactlyOnce(t *testing.T) {
	jdir := t.TempDir()
	traces := t.TempDir()
	const n = 16
	for i := 0; i < n; i++ {
		writeTrace(t, traces, fmt.Sprintf("t%02d.iq", i), uint64(i+1))
	}

	life1 := runLife(t, true, "-journal-dir", jdir, "-workers", "1", traces)
	if !life1.killed && life1.exitCode != exitOK {
		t.Fatalf("life 1 ended unexpectedly: killed=%v exit=%d\nstderr: %s",
			life1.killed, life1.exitCode, life1.stderr)
	}
	t.Logf("life 1: %d outcomes before SIGKILL (killed=%v)", len(life1.outcomes), life1.killed)

	// Life 2 is a journal-dir-only invocation: replay the backlog, drain,
	// exit clean.
	life2 := runLife(t, false, "-journal-dir", jdir, "-workers", "1")
	if life2.exitCode != exitOK {
		t.Fatalf("life 2 exit = %d, want 0\nstderr: %s", life2.exitCode, life2.stderr)
	}
	t.Logf("life 2: %d replayed outcomes, %d notices", len(life2.outcomes), len(life2.notices))
	if life1.killed && len(life2.outcomes)+len(life2.notices) == 0 {
		t.Error("SIGKILLed life left nothing for the restart to settle")
	}

	checkLives(t, jdir, []*lifeResult{life1, life2})
}

// TestCrashRestartSoak repeats the kill/restart cycle: each life replays
// the survivors of the last and is itself killed after its first fresh
// outcome, until the backlog is gone; a final unkilled life proves the
// journal drains clean. The exactly-once contract must hold across the
// whole chain.
func TestCrashRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak skipped in -short mode")
	}
	jdir := t.TempDir()
	traces := t.TempDir()
	const n = 12
	for i := 0; i < n; i++ {
		writeTrace(t, traces, fmt.Sprintf("t%02d.iq", i), uint64(i+100))
	}

	lives := []*lifeResult{runLife(t, true, "-journal-dir", jdir, "-workers", "1", traces)}
	const maxKills = 6
	for k := 1; k < maxKills; k++ {
		last := lives[len(lives)-1]
		if !last.killed {
			break // the backlog drained before the kill could land
		}
		lives = append(lives, runLife(t, true, "-journal-dir", jdir, "-workers", "1"))
	}
	// Final life: no kill, must settle whatever is left.
	final := runLife(t, false, "-journal-dir", jdir, "-workers", "1")
	if final.exitCode != exitOK {
		t.Fatalf("final life exit = %d, want 0\nstderr: %s", final.exitCode, final.stderr)
	}
	lives = append(lives, final)

	kills := 0
	for _, l := range lives {
		if l.killed {
			kills++
		}
	}
	t.Logf("soak: %d lives, %d SIGKILLs", len(lives), kills)
	checkLives(t, jdir, lives)
}
