// Command choir-gatewayd is the long-running Choir gateway service: a
// resilient decode pipeline that accepts IQ captures from trace files,
// directories, or a TCP ingest socket, queues them behind an explicit
// backpressure policy, and decodes each one through the recovery ladder —
// an ordered list of collision-resolution backends, by default
// choir -> relaxed -> strongest, each tried once. -ladder reorders or
// replaces the rungs; -backend pins a single backend with no fallback. A
// frame's outcome depends only on its samples, never on the frames before
// it (TestRunJunkBurstCostsNothingLater). Every accepted frame gets
// exactly one terminal outcome line on stdout: decoded (naming the
// backend that succeeded), failed with a typed error, or shed.
//
// TCP ingest (-listen) speaks the length-prefixed streaming framing
// (trace.WriteFramed), one frame per connection: the frame is admitted as
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
// shrinks (or additively regrows) how many frames may be in flight, so
// sustained overload sheds early at the controller instead of deep in the
// queue. /healthz and /readyz on -debug-addr report liveness and
// readiness (ready = accepting, queue and admission window below
// capacity).
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
//	choir-gatewayd -backend slotshift night/*.iq
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
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"choir/internal/backend"
	"choir/internal/gateway"
	"choir/internal/obs"
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
// whole daemon: ctx carries the signal-triggered shutdown, argv excludes
// the program name, and the exit code is returned instead of passed to
// os.Exit.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("choir-gatewayd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "", "framed streaming TCP ingest address (e.g. :7373); decode starts before the last sample arrives")
	connTimeout := fs.Duration("conn-timeout", 30*time.Second, "per-connection I/O deadline on the TCP ingest socket (0 = none)")
	maxConns := fs.Int("max-conns", 64, "concurrent TCP ingest connections before new ones are shed")
	queue := fs.Int("queue", 64, "bounded ingest queue depth")
	shedPolicy := fs.String("shed-policy", "block", "full-queue policy: block, drop-oldest, or reject")
	workers := fs.Int("workers", 0, "decode workers (0 = all CPUs)")
	decodeTimeout := fs.Duration("decode-timeout", 0, "per-attempt decode deadline (0 = none)")
	backendName := fs.String("backend", "", "decode with a single collision-resolution backend (one of "+strings.Join(backend.Names(), ", ")+") instead of the recovery ladder")
	ladder := fs.String("ladder", "", "comma-separated backend names forming the recovery ladder, each tried once (default "+strings.Join(gateway.DefaultLadder(), ",")+")")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown before queued frames are shed")
	metrics := fs.Bool("metrics", false, "record gateway metrics and dump a JSON snapshot at exit")
	metricsOut := fs.String("metrics-out", "", "metrics snapshot destination (default or \"-\": stderr)")
	debugAddr := fs.String("debug-addr", "", "serve expvar, pprof, and health probes on this address (e.g. localhost:6060); implies metrics recording")
	journalDir := fs.String("journal-dir", "", "write-ahead journal directory: admitted frames survive process death and replay on restart")
	fsync := fs.Bool("fsync", false, "fsync each journal append (durability across power loss, not just process death)")
	admissionTarget := fs.Duration("admission-target", 0, "AIMD admission control: p99 frame-latency target (0 = off)")
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	// A journal-dir-only invocation is valid: it replays whatever backlog
	// the previous life left behind, drains it, and exits.
	if *listen == "" && fs.NArg() == 0 && *journalDir == "" {
		fmt.Fprintln(stderr, "usage: choir-gatewayd [-listen addr] [-journal-dir dir] [-queue n -shed-policy p] [trace.iq | dir ...]")
		return exitUsage
	}
	policy, err := gateway.ParseShedPolicy(*shedPolicy)
	if err != nil {
		fmt.Fprintln(stderr, "choir-gatewayd:", err)
		return exitUsage
	}
	if *backendName != "" && *ladder != "" {
		fmt.Fprintln(stderr, "choir-gatewayd: -backend and -ladder are mutually exclusive")
		return exitUsage
	}
	var rungs []string
	switch {
	case *backendName != "":
		rungs = []string{*backendName}
	case *ladder != "":
		rungs = strings.Split(*ladder, ",")
	}
	if ctx == nil {
		ctx = context.Background()
	}

	dumpMetrics, stopDebug, err := obs.StartCLI(*metrics, *metricsOut, *debugAddr)
	if err != nil {
		fmt.Fprintln(stderr, "choir-gatewayd:", err)
		return exitFailed
	}
	defer stopDebug()
	defer func() {
		if err := dumpMetrics(); err != nil {
			fmt.Fprintln(stderr, "choir-gatewayd: metrics dump:", err)
		}
	}()

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
		return exitFailed
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
			return errors.New("draining, or queue or admission window full")
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

	ingestOK := true
	if fs.NArg() > 0 {
		accepted, errs := gateway.IngestFiles(ctx, g, fs.Args())
		for _, e := range errs {
			fmt.Fprintln(stderr, "choir-gatewayd:", e)
			ingestOK = false
		}
		fmt.Fprintf(stderr, "choir-gatewayd: accepted %d trace(s)\n", accepted)
	}

	serveOK := true
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(stderr, "choir-gatewayd:", err)
			drain(g, *drainTimeout, stderr)
			<-printerDone
			return exitFailed
		}
		fmt.Fprintf(stderr, "choir-gatewayd: listening on %s\n", ln.Addr())
		if err := gateway.ServeTCPStream(ctx, g, ln); err != nil {
			fmt.Fprintln(stderr, "choir-gatewayd:", err)
			serveOK = false
		}
	}

	interrupted := ctx.Err() != nil
	drain(g, *drainTimeout, stderr)
	<-printerDone

	st := g.Stats()
	fmt.Fprintf(stderr, "choir-gatewayd: accepted %d, decoded %d (%d recovered by ladder), failed %d, shed %d\n",
		st.Accepted, st.Decoded, st.Recovered, st.Failed, st.Shed)
	if st.Replayed > 0 {
		fmt.Fprintf(stderr, "choir-gatewayd: %d of those were replayed from the journal\n", st.Replayed)
	}
	if interrupted {
		fmt.Fprintln(stderr, "choir-gatewayd: interrupted")
		return exitInterrupted
	}
	if !ingestOK || !serveOK {
		return exitFailed
	}
	return exitOK
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
