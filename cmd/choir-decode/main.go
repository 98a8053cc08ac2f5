// Command choir-decode runs a Choir collision-resolution backend over one
// or more IQ trace files produced by choir-gen (or any tool emitting the
// internal/trace format) and prints every separated user. -backend selects
// the strategy (default "choir", the reference decoder; see choir-decode
// -help for the registered alternatives). With -team it runs the
// below-noise team decoder of Sec. 7 instead. Multiple traces are decoded
// concurrently across -workers goroutines — decoders are borrowed from a
// per-PHY pool — and both reports and per-trace errors are emitted in
// argument order regardless of which decode finishes first. An unreadable
// trace does not abort the batch; it is reported in place and the command
// exits nonzero after every input has been processed.
//
// With -fault/-fault-rate the trace's IQ is corrupted before decoding —
// deterministic per input index — to exercise the decoder's graceful
// degradation on recorded captures.
//
// Usage:
//
//	choir-decode collision.iq
//	choir-decode -backend superposed collision.iq
//	choir-decode -team team.iq
//	choir-decode -workers 4 night/*.iq
//	choir-decode -fault interferer -fault-rate 0.3 collision.iq
//	choir-decode -metrics -debug-addr localhost:6060 collision.iq
//
// SIGINT/SIGTERM cancel the batch cooperatively: no new trace decode
// starts, already-finished reports still print, the metrics snapshot
// flushes, and the process exits 130 (interrupted) rather than 1 (failed).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"

	"choir"
	"choir/internal/obs"
	"choir/internal/trace"
)

// Exit codes: 0 success, 1 failure, 2 usage, 130 interrupted by signal.
const (
	exitOK          = 0
	exitFailed      = 1
	exitUsage       = 2
	exitInterrupted = 130
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so tests can drive the
// whole command: ctx carries the signal-triggered cancellation, argv
// excludes the program name, and the exit code is returned instead of
// passed to os.Exit.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("choir-decode", flag.ContinueOnError)
	fs.SetOutput(stderr)
	team := fs.Bool("team", false, "decode as a coordinated team transmission")
	backendName := fs.String("backend", "choir", "collision-resolution backend: "+strings.Join(choir.BackendNames(), ", "))
	workers := fs.Int("workers", 0, "concurrent trace decodes (0 = all CPUs, 1 = serial)")
	faultClass := fs.String("fault", "", "inject a fault before decoding: clip, drop, interferer, drift, or truncate")
	faultRate := fs.Float64("fault-rate", 0.3, "fault intensity in [0,1] for -fault")
	metrics := fs.Bool("metrics", false, "record decode metrics and dump a JSON snapshot at exit")
	metricsOut := fs.String("metrics-out", "", "metrics snapshot destination (default or \"-\": stderr)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060); implies metrics recording")
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: choir-decode [-team] [-workers n] [-fault class -fault-rate r] <trace.iq> [more.iq ...]")
		return exitUsage
	}
	files := fs.Args()
	if ctx == nil {
		ctx = context.Background()
	}
	if !choir.BackendRegistered(*backendName) {
		fmt.Fprintf(stderr, "choir-decode: unknown backend %q; one of %s\n",
			*backendName, strings.Join(choir.BackendNames(), ", "))
		return exitUsage
	}
	if *team && *backendName != "choir" {
		fmt.Fprintln(stderr, "choir-decode: -team requires the choir backend (team decoding is not a collision backend)")
		return exitUsage
	}

	dumpMetrics, stopDebug, err := obs.StartCLI(*metrics, *metricsOut, *debugAddr)
	if err != nil {
		fmt.Fprintln(stderr, "choir-decode:", err)
		return exitFailed
	}
	defer stopDebug()
	defer func() {
		if err := dumpMetrics(); err != nil {
			fmt.Fprintln(stderr, "choir-decode: metrics dump:", err)
		}
	}()

	var inj choir.FaultInjector
	if *faultClass != "" {
		class, err := choir.ParseFaultClass(*faultClass)
		if err != nil {
			fmt.Fprintln(stderr, "choir-decode:", err)
			return exitFailed
		}
		if inj, err = choir.NewFault(class, *faultRate); err != nil {
			fmt.Fprintln(stderr, "choir-decode:", err)
			return exitFailed
		}
	}

	// One pool per PHY configuration seen in the batch; traces recorded at
	// different spreading factors each get their own. Collision decodes go
	// through the selected backend; team decodes reach the reference decoder
	// behind the "choir" backend (team decoding is not part of the backend
	// interface).
	var mu sync.Mutex
	pools := map[choir.PHYParams]*choir.BackendPool{}
	poolFor := func(p choir.PHYParams) (*choir.BackendPool, error) {
		mu.Lock()
		defer mu.Unlock()
		if pool, ok := pools[p]; ok {
			return pool, nil
		}
		pool, err := choir.NewBackendPool(*backendName, p)
		if err != nil {
			return nil, err
		}
		pools[p] = pool
		return pool, nil
	}

	// Workers write only into their own indexed slots; all printing happens
	// afterwards on this goroutine, so report and error lines come out in
	// argument order no matter how the decodes were scheduled. A canceled
	// context stops new decodes but the in-flight ones finish, so every slot
	// is either complete or untouched.
	reports := make([]string, len(files))
	errs := make([]error, len(files))
	done := make([]bool, len(files))
	fanErr := choir.NewWorkerPool(*workers).ForEach(ctx, len(files), func(i int) {
		reports[i], errs[i] = decodeTrace(ctx, files[i], uint64(i), *team, inj, poolFor)
		done[i] = true
	})
	exit := exitOK
	for i, name := range files {
		if !done[i] {
			continue // never started: the batch was interrupted
		}
		if len(files) > 1 {
			fmt.Fprintf(stdout, "== %s ==\n", name)
		}
		if errs[i] != nil {
			if errors.Is(errs[i], choir.ErrDecodeCanceled) || errors.Is(errs[i], choir.ErrDecodeDeadline) {
				fmt.Fprintf(stderr, "choir-decode: %s: interrupted: %v\n", name, errs[i])
				continue // counted below via fanErr / ctx
			}
			fmt.Fprintf(stderr, "choir-decode: %s: %v\n", name, errs[i])
			exit = exitFailed
			continue
		}
		fmt.Fprint(stdout, reports[i])
	}
	if fanErr != nil || ctx.Err() != nil {
		fmt.Fprintln(stderr, "choir-decode: interrupted; partial results above")
		return exitInterrupted
	}
	return exit
}

// decodeTrace reads one trace, optionally corrupts it with inj, decodes it
// with a pooled backend (or the reference decoder for -team), and returns
// the full report as a string so batch output stays ordered. A canceled
// context surfaces as an error (the trace was not decoded), unlike an
// ordinary failed decode which is a report.
func decodeTrace(ctx context.Context, name string, index uint64, team bool, inj choir.FaultInjector, poolFor func(choir.PHYParams) (*choir.BackendPool, error)) (string, error) {
	f, err := os.Open(name)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h, samples, err := trace.Read(f)
	if err != nil {
		return "", err
	}

	var out strings.Builder
	fmt.Fprintf(&out, "trace: %s, %d samples, payload %d bytes, %d ground-truth users\n",
		h.Params.SF, len(samples), h.PayloadLen, len(h.Users))
	if inj != nil {
		samples = inj.Apply(samples, choir.DeriveSeed(0xFA017, index))
		fmt.Fprintf(&out, "fault: %s at intensity %g, %d samples survive\n",
			inj.Class(), inj.Intensity(), len(samples))
	}

	truth := map[string]bool{}
	for _, u := range h.Users {
		truth[u] = true
	}

	pool, err := poolFor(h.Params)
	if err != nil {
		return "", err
	}
	b := pool.Get()
	defer pool.Put(b)

	if team {
		res, err := choir.BackendDecoder(b).DecodeTeam(ctx, samples, h.PayloadLen)
		if err != nil {
			if errors.Is(err, choir.ErrDecodeCanceled) || errors.Is(err, choir.ErrDecodeDeadline) {
				return "", err
			}
			// A failed decode is a result, not a tool failure — under
			// injected faults it is often the expected outcome, and one
			// undecodable trace must not abort a batch.
			fmt.Fprintf(&out, "decode failed: %v\n", err)
			return out.String(), nil
		}
		status := "FAILED"
		if res.Err == nil {
			status = "ok"
			if len(truth) > 0 && !truth[fmt.Sprintf("%x", res.Payload)] {
				status = "WRONG PAYLOAD"
			}
		}
		fmt.Fprintf(&out, "team: %d members detected, payload %x (%s)\n", len(res.Offsets), res.Payload, status)
		return out.String(), nil
	}

	if b.Name() != "choir" {
		fmt.Fprintf(&out, "backend: %s\n", b.Name())
	}
	res, err := choir.BackendDecode(ctx, b, samples, h.PayloadLen)
	if err != nil {
		if errors.Is(err, choir.ErrDecodeCanceled) || errors.Is(err, choir.ErrDecodeDeadline) {
			return "", err
		}
		fmt.Fprintf(&out, "decode failed: %v\n", err)
		return out.String(), nil
	}
	correct := 0
	for i, u := range res.Users {
		status := "FAILED"
		if u.Decoded() {
			status = "ok"
			if len(truth) > 0 {
				if truth[fmt.Sprintf("%x", u.Payload)] {
					correct++
				} else {
					status = "WRONG PAYLOAD"
				}
			}
		}
		fmt.Fprintf(&out, "user %d: offset %8.3f bins, payload %x (%s)\n", i, u.Offset, u.Payload, status)
	}
	if len(truth) > 0 {
		fmt.Fprintf(&out, "recovered %d/%d ground-truth payloads\n", correct, len(truth))
	}
	return out.String(), nil
}
