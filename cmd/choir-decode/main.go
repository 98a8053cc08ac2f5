// Command choir-decode runs a Choir collision-resolution backend over one
// or more IQ trace files produced by choir-gen (or any tool emitting the
// internal/trace format) and prints every separated user. -backend selects
// the strategy (default "choir", the reference decoder; see choir-decode
// -help for the registered alternatives). With -team it runs the
// below-noise team decoder of Sec. 7 instead. Multiple traces are decoded
// concurrently on every CPU (GOMAXPROCS=1 decodes them one at a time) —
// each on an instance, built for its trace's PHY, borrowed from one pool —
// and both reports and per-trace errors are emitted in argument order
// regardless of which decode finishes first. An unreadable trace does not
// abort the batch; it is reported in place and the command exits nonzero
// after every input has been processed.
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
//	choir-decode night/*.iq
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
	"fmt"
	"io"
	"strings"

	"choir"
	"choir/internal/cli"
	"choir/internal/exec"
	"choir/internal/trace"
)

func main() { cli.Main(run) }

// run is the command with its environment made explicit (see internal/cli).
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	cmd := cli.New("choir-decode", stderr)
	team := cmd.Bool("team", false, "decode as a coordinated team transmission")
	backendName := cmd.String("backend", "choir", "collision-resolution backend: "+strings.Join(choir.BackendNames(), ", "))
	faultClass := cmd.String("fault", "", "inject a fault before decoding: clip, drop, interferer, drift, or truncate")
	faultRate := cmd.Float64("fault-rate", 0.3, "fault intensity in [0,1] for -fault")
	if err := cmd.Parse(argv); err != nil {
		return cli.ExitUsage
	}
	if cmd.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: choir-decode [-team] [-fault class -fault-rate r] <trace.iq> [more.iq ...]")
		return cli.ExitUsage
	}
	files := cmd.Args()
	// Collision decodes go through the selected backend; team decodes reach
	// the reference decoder behind the "choir" backend (team decoding is not
	// part of the backend interface). The pool lends an instance for each
	// trace's PHY.
	pool, err := choir.NewBackendPool(*backendName)
	if err != nil {
		fmt.Fprintln(stderr, "choir-decode:", err)
		return cli.ExitUsage
	}
	if *team && *backendName != "choir" {
		fmt.Fprintln(stderr, "choir-decode: -team requires the choir backend (team decoding is not a collision backend)")
		return cli.ExitUsage
	}
	var inj *choir.FaultInjector
	if *faultClass != "" {
		class, err := choir.ParseFaultClass(*faultClass)
		if err == nil {
			inj, err = choir.NewFault(class, *faultRate)
		}
		if err != nil {
			fmt.Fprintln(stderr, "choir-decode:", err)
			return cli.ExitFailed
		}
	}

	stop, err := cmd.Start()
	if err != nil {
		fmt.Fprintln(stderr, "choir-decode:", err)
		return cli.ExitFailed
	}
	defer stop()

	// Decodes write only into their own indexed slots; all printing happens
	// afterwards on this goroutine, so report and error lines come out in
	// argument order no matter how the decodes were scheduled. A canceled
	// context stops new decodes but the in-flight ones finish, so every slot
	// is either complete or untouched. ForEach fails only when ctx fired,
	// which cmd.Exit turns into 130 after the finished reports print.
	reports := make([]string, len(files))
	errs := make([]error, len(files))
	done := make([]bool, len(files))
	_ = exec.ForEach(ctx, len(files), func(i int) {
		reports[i], errs[i] = decodeTrace(ctx, files[i], uint64(i), *team, inj, pool)
		done[i] = true
	})
	code := cli.ExitOK
	for i, name := range files {
		if !done[i] {
			continue // never started: the batch was interrupted
		}
		if len(files) > 1 {
			fmt.Fprintf(stdout, "== %s ==\n", name)
		}
		if errs[i] != nil {
			fmt.Fprintf(stderr, "choir-decode: %s: %v\n", name, errs[i])
			code = cli.ExitFailed
			continue
		}
		fmt.Fprint(stdout, reports[i])
	}
	return cmd.Exit(ctx, code)
}

// decodeTrace reads one trace, optionally corrupts it with inj, decodes it
// with a pooled backend (or the reference decoder for -team), and returns
// the full report as a string so batch output stays ordered. A canceled
// context surfaces as an error (the trace was not decoded), unlike an
// ordinary failed decode which is a report.
func decodeTrace(ctx context.Context, name string, index uint64, team bool, inj *choir.FaultInjector, pool *choir.BackendPool) (string, error) {
	h, samples, err := trace.ReadFile(name)
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

	// truth counts each ground-truth payload: users sending identical
	// payloads are each recovered once, never one decoded user twice.
	truth := map[string]int{}
	for _, u := range h.Users {
		truth[u]++
	}

	b, err := pool.Get(h.Params)
	if err != nil {
		return "", err
	}
	defer pool.Put(h.Params, b)

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
			if len(truth) > 0 && truth[fmt.Sprintf("%x", res.Payload)] == 0 {
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
				key := fmt.Sprintf("%x", u.Payload)
				if left, known := truth[key]; !known {
					status = "WRONG PAYLOAD"
				} else if left > 0 {
					truth[key]--
					correct++
				}
			}
		}
		fmt.Fprintf(&out, "user %d: offset %8.3f bins, payload %x (%s)\n", i, u.Offset, u.Payload, status)
	}
	if len(truth) > 0 {
		fmt.Fprintf(&out, "recovered %d/%d ground-truth payloads\n", correct, len(h.Users))
	}
	return out.String(), nil
}
