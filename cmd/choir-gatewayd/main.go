// Command choir-gatewayd is the long-running Choir gateway service: a
// resilient decode pipeline that accepts IQ captures from trace files,
// directories, or a TCP ingest socket, queues them behind an explicit
// backpressure policy, and decodes each one through the recovery ladder —
// an ordered list of collision-resolution backends, by default
// choir -> relaxed -> strongest, each tried once. -ladder reorders or
// replaces the rungs; a single name pins one backend with no fallback. A
// frame's outcome depends only on its samples, never on the frames before
// it (TestRunJunkBurstCostsNothingLater). Every accepted frame gets
// exactly one terminal outcome line on stdout: decoded (naming the
// backend that succeeded), failed with a typed error, or shed.
//
// TCP ingest (-listen) speaks the trace encoding of choir-gen's capture
// files (trace.WriteFramed), one frame per connection, so a capture file
// sent as it is (nc host 7373 < a.iq) is a frame: the frame is admitted as
// soon as its header arrives, a one-line status reply ("accepted <id>" or
// "error: <reason>") comes back immediately, and decoding overlaps the
// remaining samples still being delivered. Connections are capped at
// -max-conns and bounded by -conn-timeout.
//
// -journal-dir enables the write-ahead frame journal: every admitted frame
// is persisted before it may decode, and on restart with the same
// directory, frames the previous process accepted but never finished are
// replayed ahead of new ingest (their outcome lines carry a "replayed"
// mark). Frames whose outcome was settled right before the crash — after
// the completion hit the journal but possibly before its line reached
// stdout — are announced as "frame N: completed before restart" instead of
// being decoded again, so every admitted frame gets a terminal record
// exactly once across process lives. Invoking the daemon with only
// -journal-dir replays any pending backlog and exits. -fsync extends the
// durability guarantee from process death to power loss at the cost of one
// fsync per admitted frame.
//
// -admission-target layers an AIMD admission controller over the shed
// policy: the gateway watches the p99 frame latency and multiplicatively
// shrinks (or additively regrows) how many frames may queue, within
// [1, -queue], so sustained overload sheds early at a shorter queue
// instead of deep in a long one. The window bounds queued frames, like
// -queue; frames being decoded do not count. /healthz and /readyz on
// -debug-addr report liveness and readiness (ready = accepting and the
// queue below its limit).
//
// Usage:
//
//	choir-gatewayd night/*.iq
//	choir-gatewayd -listen :7373
//	choir-gatewayd -listen :7373 -conn-timeout 10s
//	choir-gatewayd -listen :7373 -queue 128 -shed-policy drop-oldest
//	choir-gatewayd -decode-timeout 2s captures/
//	choir-gatewayd -ladder choir captures/          # first rung only
//	choir-gatewayd -ladder superposed,strongest night/*.iq
//	choir-gatewayd -metrics -debug-addr localhost:6060 -listen :7373
//	choir-gatewayd -journal-dir /var/lib/choir/journal -listen :7373
//	choir-gatewayd -journal-dir /var/lib/choir/journal        # replay and exit
//	choir-gatewayd -admission-target 250ms -listen :7373
//
// SIGINT/SIGTERM stop ingest and drain the queue gracefully (bounded by
// -drain-timeout, then a hard stop that sheds the remainder); the metrics
// snapshot still flushes and the process exits 130 rather than 1.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"choir/internal/backend"
	"choir/internal/cli"
	"choir/internal/gateway"
	"choir/internal/obs"
)

func main() { cli.Main(run) }

// run is the daemon with its environment made explicit (see internal/cli):
// ctx carries the signal-triggered shutdown.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	cmd := cli.New("choir-gatewayd", stderr)
	listen := cmd.String("listen", "", "framed streaming TCP ingest address (e.g. :7373); decode starts before the last sample arrives")
	connTimeout := cmd.Duration("conn-timeout", 30*time.Second, "per-connection I/O deadline on the TCP ingest socket (0 = none)")
	maxConns := cmd.Int("max-conns", 64, "concurrent TCP ingest connections before new ones are shed")
	queue := cmd.Int("queue", 64, "bounded ingest queue depth")
	shedPolicy := cmd.String("shed-policy", "block", "full-queue policy: block, drop-oldest, or reject")
	workers := cmd.Int("workers", 0, "decode workers (0 = all CPUs)")
	decodeTimeout := cmd.Duration("decode-timeout", 0, "per-attempt decode deadline (0 = none)")
	ladder := cmd.String("ladder", "", "comma-separated backend names (of "+strings.Join(backend.Names(), ", ")+") forming the recovery ladder, each tried once; one name runs that backend alone (default "+strings.Join(gateway.DefaultLadder(), ",")+")")
	drainTimeout := cmd.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown before queued frames are shed")
	journalDir := cmd.String("journal-dir", "", "write-ahead journal directory: admitted frames survive process death and replay on restart")
	fsync := cmd.Bool("fsync", false, "fsync each journal append (durability across power loss, not just process death)")
	admissionTarget := cmd.Duration("admission-target", 0, "AIMD admission control: p99 frame-latency target that shrinks or regrows the window of queued frames within [1, -queue] (0 = off)")
	if err := cmd.Parse(argv); err != nil {
		return cli.ExitUsage
	}
	// A journal-dir-only invocation is valid: it replays whatever backlog
	// the previous life left behind, drains it, and exits.
	if *listen == "" && cmd.NArg() == 0 && *journalDir == "" {
		fmt.Fprintln(stderr, "usage: choir-gatewayd [-listen addr] [-journal-dir dir] [-queue n -shed-policy p] [trace.iq | dir ...]")
		return cli.ExitUsage
	}
	policy, err := gateway.ParseShedPolicy(*shedPolicy)
	if err != nil {
		fmt.Fprintln(stderr, "choir-gatewayd:", err)
		return cli.ExitUsage
	}
	if *drainTimeout < 0 {
		fmt.Fprintf(stderr, "choir-gatewayd: negative -drain-timeout %v\n", *drainTimeout)
		return cli.ExitUsage
	}
	var rungs []string
	if *ladder != "" {
		rungs = strings.Split(*ladder, ",")
	}

	stop, err := cmd.Start()
	if err != nil {
		fmt.Fprintln(stderr, "choir-gatewayd:", err)
		return cli.ExitFailed
	}
	defer stop()

	g, err := gateway.New(gateway.Config{
		Queue:           *queue,
		Policy:          policy,
		Workers:         *workers,
		DecodeTimeout:   *decodeTimeout,
		Ladder:          rungs,
		MaxConns:        *maxConns,
		ConnTimeout:     *connTimeout,
		JournalDir:      *journalDir,
		Fsync:           *fsync,
		AdmissionTarget: *admissionTarget,
	})
	if err != nil {
		fmt.Fprintln(stderr, "choir-gatewayd:", err)
		return cmd.Exit(ctx, cli.ExitFailed)
	}

	// Liveness and readiness probes on the -debug-addr mux track this
	// gateway for as long as the daemon runs.
	obs.RegisterHealthCheck("gateway", func() error {
		if !g.Healthy() {
			return errors.New("gateway stopped")
		}
		return nil
	})
	obs.RegisterReadyCheck("gateway", func() error {
		if !g.Ready() {
			return errors.New("draining, or queue at its limit")
		}
		return nil
	})
	defer obs.RegisterHealthCheck("gateway", nil)
	defer obs.RegisterReadyCheck("gateway", nil)

	// Restart bookkeeping prints before the outcome printer starts: frames
	// whose completion was journaled but whose outcome line may have been
	// lost in the crash get their terminal notice first, so a reader sees
	// exactly one record per admitted frame across process lives.
	for _, id := range g.CompletedBeforeRestart() {
		fmt.Fprintf(stdout, "frame %d: completed before restart\n", id)
	}
	if n := g.Stats().Replayed; n > 0 {
		fmt.Fprintf(stderr, "choir-gatewayd: replaying %d journaled frame(s) from %s\n", n, *journalDir)
	}

	// The printer is the sole outcome consumer; it exits when Drain closes
	// the stream, so by the time it is joined every terminal outcome has
	// been written.
	printerDone := make(chan struct{})
	go func() {
		defer close(printerDone)
		for o := range g.Outcomes() {
			printOutcome(stdout, o)
		}
	}()

	code := cli.ExitOK
	if cmd.NArg() > 0 {
		accepted, errs := gateway.IngestFiles(ctx, g, cmd.Args())
		for _, e := range errs {
			fmt.Fprintln(stderr, "choir-gatewayd:", e)
			code = cli.ExitFailed
		}
		fmt.Fprintf(stderr, "choir-gatewayd: accepted %d trace(s)\n", accepted)
	}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err == nil {
			fmt.Fprintf(stderr, "choir-gatewayd: listening on %s\n", ln.Addr())
			err = gateway.ServeTCPStream(ctx, g, ln)
		}
		if err != nil {
			fmt.Fprintln(stderr, "choir-gatewayd:", err)
			code = cli.ExitFailed
		}
	}

	drain(g, *drainTimeout, stderr)
	<-printerDone

	st := g.Stats()
	fmt.Fprintf(stderr, "choir-gatewayd: accepted %d, decoded %d (%d recovered by ladder), failed %d, shed %d\n",
		st.Accepted, st.Decoded, st.Recovered, st.Failed, st.Shed)
	if st.Replayed > 0 {
		fmt.Fprintf(stderr, "choir-gatewayd: %d of those were replayed from the journal\n", st.Replayed)
	}
	return cmd.Exit(ctx, code)
}

// drain gives the gateway a bounded graceful drain. The budget uses a
// fresh context: on shutdown the signal context is already dead, and a
// hard stop must remain reachable after it.
func drain(g *gateway.Gateway, budget time.Duration, stderr io.Writer) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		fmt.Fprintln(stderr, "choir-gatewayd:", err)
	}
}

// printOutcome writes one frame's terminal outcome as a single line.
// Journal-replayed frames carry a "replayed" mark after their source so a
// log reader can tell a decode recovered from a previous process life from
// fresh ingest.
func printOutcome(w io.Writer, o gateway.Outcome) {
	src := o.Source
	if o.Replayed {
		src += ", replayed"
	}
	switch o.Kind {
	case gateway.OutcomeDecoded:
		fmt.Fprintf(w, "frame %d (%s): decoded %d payload(s) of %d user(s) by backend %s (rung %d), attempt %d:",
			o.FrameID, src, len(o.Payloads), o.Users, o.Backend, int(o.Stage), o.Attempts)
		for _, p := range o.Payloads {
			fmt.Fprintf(w, " %x", p)
		}
		fmt.Fprintln(w)
	case gateway.OutcomeShed:
		fmt.Fprintf(w, "frame %d (%s): shed: %v\n", o.FrameID, src, o.Err)
	default:
		fmt.Fprintf(w, "frame %d (%s): failed after %d attempt(s): %v\n",
			o.FrameID, src, o.Attempts, o.Err)
	}
}
