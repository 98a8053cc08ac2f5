// Package gateway is the resilient long-running service wrapper around the
// Choir collision decoders: a bounded ingest queue with explicit
// backpressure and load-shedding policies, a pool of decode workers with
// panic isolation, a decode-recovery ladder of pluggable collision-
// resolution backends (default: full SIC → relaxed tunables →
// single-strongest-user) that tries each rung once, and a graceful
// drain-then-stop shutdown.
//
// The contract the chaos tests pin: every frame the gateway accepts
// produces exactly one terminal outcome — decoded, failed with a
// taxonomy-typed error, or shed — and the process never panics and never
// leaks goroutines, whatever mix of corrupt IQ, queue overflow and mid-run
// shutdown it is fed. A frame's outcome is a function of its samples: a
// decode at a rung reads only them, and no state crosses from one frame to
// the next, so the outcome does not depend on worker count, on the frames
// before it, or on which process life decodes it
// (TestOutcomeIndependentOfHistory, TestJournalReplayMatchesFreshDecode).
package gateway

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"choir/internal/backend"
	"choir/internal/ctxutil"
	"choir/internal/gateway/journal"
	"choir/internal/lora"
	"choir/internal/trace"
)

// Config parameterizes a Gateway.
type Config struct {
	// Queue is the bounded ingest-queue capacity (default 64).
	Queue int
	// Policy selects what Submit does when the queue is full.
	Policy ShedPolicy
	// Workers is the number of decode workers (default GOMAXPROCS).
	Workers int
	// DecodeTimeout bounds each decode attempt; 0 means unbounded. The
	// deadline is enforced cooperatively at the decoder's stage boundaries
	// (choir.ErrDeadline), so enforcement granularity is one pipeline stage.
	DecodeTimeout time.Duration
	// Ladder is the ordered list of registered backend names the recovery
	// ladder walks, highest fidelity first (default DefaultLadder():
	// choir, relaxed, strongest). Each rung is tried at most once per frame,
	// so the ladder is also how far down a frame may go. Names must be
	// registered in internal/backend and unique within the ladder; each rung
	// gets name-keyed metrics.
	Ladder []string
	// Seed is accepted and ignored: nothing in the gateway draws at random.
	// It stays declared only because benchmark/ still sets it (ROADMAP item
	// 9).
	Seed uint64
	// Batch is accepted and ignored: every frame walks the ladder alone. It
	// stays declared only because benchmark/ still sets it (ROADMAP item 9).
	Batch int
	// MaxConns caps concurrent TCP ingest connections (default 64). Accepts
	// beyond the cap are shed: counted on gateway.conn.shed, told
	// "error: too many connections", and closed without reading the trace.
	MaxConns int
	// ConnTimeout bounds each TCP connection's I/O: reading the trace (per
	// chunk in streaming mode) and writing the status reply. 0 means no
	// deadline, preserving the historical trust-the-peer behavior.
	ConnTimeout time.Duration
	// JournalDir, when non-empty, enables the write-ahead frame journal:
	// every admitted frame is journaled before a worker may decode it, every
	// terminal outcome appends a completion record, and New replays any
	// admitted-but-incomplete frames a dead process left behind (ahead of new
	// ingest, under their original IDs; a replayed frame decodes as it would
	// have, because a decode reads only its samples).
	// Empty — the default — is bit-identical to the pre-journal gateway.
	JournalDir string
	// Fsync syncs the journal after every record (see journal.Options.Fsync):
	// full power-loss durability at a heavy per-frame latency cost. Without
	// it the journal still survives process death. Ignored when JournalDir
	// is empty.
	Fsync bool
	// AdmissionTarget, when positive, enables AIMD admission control: the
	// gateway watches its own end-to-end frame latency (the distribution
	// behind gateway.frame_latency_ns) and shrinks the effective admission
	// window multiplicatively whenever a window's p99 exceeds the target,
	// growing it back additively while latency holds under. Frames beyond
	// the window are shed by the configured Policy exactly as a full queue
	// would be. Zero — the default — disables the controller.
	AdmissionTarget time.Duration
	// AdmissionEvery is how many terminal outcomes form one latency window
	// between AIMD adjustments (default 32).
	AdmissionEvery int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder()
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.AdmissionEvery <= 0 {
		c.AdmissionEvery = 32
	}
	return c
}

// Frame is one IQ capture accepted into the gateway.
type Frame struct {
	// ID is the gateway-assigned monotonic frame identity.
	ID uint64
	// Source labels where the capture came from (file path, peer address).
	Source string
	// Header is the capture's trace metadata (PHY, payload length, ground
	// truth when present).
	Header trace.Header
	// Samples is the IQ capture itself. For a streaming frame this is the
	// full backing array the peer is still filling; stream certifies how much
	// of it is complete.
	Samples []complex128
	// Replayed marks a frame recovered from the journal of a previous
	// process life rather than freshly submitted. Its ID, samples and ladder
	// walk are exactly the dead process's; only this flag (and the Outcome's)
	// distinguishes it.
	Replayed bool

	enqueued time.Time
	// stream is non-nil for frames submitted while their samples are still
	// arriving (ServeTCPStream); decode attempts wait on it via the
	// choir.AvailFunc contract.
	stream *streamBuffer
	// journalState tracks the frame's write-ahead journal lifecycle:
	// journalNone (no admit record yet), journalAdmitted (admit journaled —
	// the terminal outcome must journal a completion), or journalSettled
	// (terminal before any admit was journaled — a streaming frame that
	// finished or aborted mid-delivery; no admit may be written after this).
	journalState atomic.Uint32
}

// Frame journal lifecycle states (Frame.journalState).
const (
	journalNone uint32 = iota
	journalAdmitted
	journalSettled
)

// OutcomeKind classifies a frame's terminal outcome.
type OutcomeKind int

const (
	// OutcomeDecoded: at least one payload was recovered.
	OutcomeDecoded OutcomeKind = iota
	// OutcomeFailed: every rung tried failed; Err carries the typed error
	// chain.
	OutcomeFailed
	// OutcomeShed: the frame was accepted but evicted (drop-oldest) or
	// flushed during shutdown without being decoded.
	OutcomeShed
)

// String implements fmt.Stringer.
func (k OutcomeKind) String() string {
	switch k {
	case OutcomeDecoded:
		return "decoded"
	case OutcomeFailed:
		return "failed"
	case OutcomeShed:
		return "shed"
	default:
		return fmt.Sprintf("OutcomeKind(%d)", int(k))
	}
}

// Outcome is the single terminal result of one accepted frame.
type Outcome struct {
	FrameID uint64
	Source  string
	Kind    OutcomeKind
	// Stage is the index of the ladder rung that produced a decode (valid
	// when Kind is OutcomeDecoded).
	Stage Stage
	// Backend is the name of the collision-resolution backend that produced
	// the decode (valid when Kind is OutcomeDecoded).
	Backend string
	// Attempts is how many ladder rungs were tried (0 for shed frames).
	Attempts int
	// Users is the number of transmitters the successful decode separated.
	Users int
	// Payloads holds the recovered payloads of a decoded frame.
	Payloads [][]byte
	// Err is the typed failure (OutcomeFailed) or shed reason (OutcomeShed);
	// classify with errors.Is against the gateway and decoder taxonomies.
	Err error
	// Replayed marks the outcome of a journal-recovered frame from a
	// previous process life (see Frame.Replayed).
	Replayed bool
}

// Stats is a snapshot of the gateway's own terminal-outcome accounting.
// Unlike the obs metrics, these counters are always on: the accepted ==
// decoded + failed + shed invariant must be checkable even when metric
// recording is disabled.
type Stats struct {
	Accepted, Decoded, Failed, Shed int64
	// Recovered counts decodes that needed a rung below full SIC.
	Recovered int64
	// Replayed counts frames re-enqueued from the journal at startup (each
	// is also counted in Accepted: it is accepted again by this process).
	Replayed int64
}

// Gateway is the resilient decode service. Create with New, feed with
// Submit (or the ingest helpers), consume Outcomes until the channel
// closes, stop with Drain.
type Gateway struct {
	cfg      Config
	queue    chan *Frame
	space    chan struct{} // pulsed after each dequeue; wakes ShedBlock waiters
	outcomes chan Outcome

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex // guards accepting and drop-oldest eviction
	accepting bool

	pending atomic.Int64  // accepted frames without a terminal outcome yet
	idle    chan struct{} // pulsed when pending drains to zero
	nextID  atomic.Uint64

	poolMu sync.Mutex
	pools  map[poolKey]*backend.Pool

	rungs []*rung

	// journal is the write-ahead frame log (nil when Config.JournalDir is
	// empty); priorCompleted lists frames a previous life admitted AND
	// completed — their outcome is durable but may never have been reported.
	journal        *journal.Writer
	priorCompleted []uint64

	// admission is the AIMD overload controller (nil when
	// Config.AdmissionTarget is zero).
	admission *admissionController

	accepted, decoded, failed, shed, recovered, replayed atomic.Int64

	drainOnce sync.Once
	drainErr  error
}

// poolKey identifies a backend pool: one per (PHY, backend name) pair seen
// in the traffic.
type poolKey struct {
	params  lora.Params
	backend string
}

// New validates cfg, starts the worker pool, and returns a running
// gateway.
func New(cfg Config) (*Gateway, error) {
	g, err := build(cfg)
	if err != nil {
		return nil, err
	}
	g.start()
	return g, nil
}

// build assembles a gateway without starting its workers. Tests use it
// directly to exercise queue and shedding behavior with no decode racing.
func build(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if _, err := ParseShedPolicy(cfg.Policy.String()); err != nil {
		return nil, fmt.Errorf("gateway: invalid shed policy %d", int(cfg.Policy))
	}
	seen := map[string]bool{}
	for _, name := range cfg.Ladder {
		if !backend.Registered(name) {
			return nil, fmt.Errorf("gateway: unknown backend %q in ladder (registered: %s)",
				name, strings.Join(backend.Names(), ", "))
		}
		if seen[name] {
			return nil, fmt.Errorf("gateway: backend %q appears twice in ladder", name)
		}
		seen[name] = true
	}
	// Recover the journal, if configured, before anything is sized: the
	// replay backlog may exceed the configured queue, and every replayed
	// frame must be queued ahead of new ingest.
	var (
		jw  *journal.Writer
		rec journal.Recovery
	)
	if cfg.JournalDir != "" {
		var err error
		jw, rec, err = journal.Open(cfg.JournalDir, journal.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrJournal, err)
		}
	}
	queueCap := cfg.Queue
	if n := len(rec.Incomplete); n > queueCap {
		queueCap = n
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg:            cfg,
		queue:          make(chan *Frame, queueCap),
		space:          make(chan struct{}, 1),
		outcomes:       make(chan Outcome, queueCap+cfg.Workers+16),
		ctx:            ctx,
		cancel:         cancel,
		accepting:      true,
		idle:           make(chan struct{}, 1),
		pools:          map[poolKey]*backend.Pool{},
		journal:        jw,
		priorCompleted: rec.Completed,
	}
	if cfg.AdmissionTarget > 0 {
		g.admission = newAdmissionController(cfg.AdmissionTarget, cfg.AdmissionEvery, queueCap)
	}
	for _, name := range cfg.Ladder {
		g.rungs = append(g.rungs, newRung(name))
	}
	// Restart ID allocation above everything the journal ever saw, then
	// re-enqueue the replayed frames: they are accepted (again) by this
	// process, ahead of any new ingest, under their original IDs — a decode
	// reads only the frame's samples, so replays walk the exact ladder the
	// dead process would have.
	g.nextID.Store(rec.MaxID)
	for _, e := range rec.Incomplete {
		f := &Frame{
			ID: e.ID, Source: "journal", Header: e.Header, Samples: e.Samples,
			Replayed: true, enqueued: time.Now(),
		}
		f.journalState.Store(journalAdmitted) // Open re-journaled the admit
		g.queue <- f
		g.pending.Add(1)
		g.accepted.Add(1)
		g.replayed.Add(1)
		mAccepted.Inc()
		mReplayed.Inc()
	}
	return g, nil
}

// start launches the decode workers.
func (g *Gateway) start() {
	g.wg.Add(g.cfg.Workers)
	for w := 0; w < g.cfg.Workers; w++ {
		go g.worker()
	}
}

// Outcomes returns the terminal-outcome stream. The channel closes after
// Drain completes; consumers must keep reading until then or the workers
// stall once the channel's buffer fills.
func (g *Gateway) Outcomes() <-chan Outcome { return g.outcomes }

// Stats snapshots the gateway's terminal-outcome accounting.
func (g *Gateway) Stats() Stats {
	return Stats{
		Accepted:  g.accepted.Load(),
		Decoded:   g.decoded.Load(),
		Failed:    g.failed.Load(),
		Shed:      g.shed.Load(),
		Recovered: g.recovered.Load(),
		Replayed:  g.replayed.Load(),
	}
}

// CompletedBeforeRestart returns the IDs of frames a previous process life
// admitted AND completed: their single terminal outcome is durably recorded
// in the journal, but the dying process may have been killed between
// journaling the completion and reporting the outcome. Callers that log
// outcomes should report these once at startup so crash-spanning accounting
// closes (the daemon prints them as "completed before restart" notices).
// Empty without a journal or after a clean shutdown.
func (g *Gateway) CompletedBeforeRestart() []uint64 {
	out := make([]uint64, len(g.priorCompleted))
	copy(out, g.priorCompleted)
	return out
}

// Submit offers one capture to the gateway. On acceptance it returns the
// assigned frame ID; the frame's terminal outcome arrives on Outcomes. A
// rejected frame (ErrQueueFull under ShedReject, ErrStopped after Drain
// began, or ctx firing while blocked under ShedBlock) was never accepted
// and produces no outcome. ctx bounds only the submission itself.
func (g *Gateway) Submit(ctx context.Context, source string, h trace.Header, samples []complex128) (uint64, error) {
	return g.submitFrame(ctx, &Frame{Source: source, Header: h, Samples: samples})
}

// submitFrame is Submit's body, shared with the streaming ingest path (which
// attaches a streamBuffer to the frame before submission).
func (g *Gateway) submitFrame(ctx context.Context, f *Frame) (uint64, error) {
	ctx = ctxutil.Background(ctx)
	if g.journal != nil && f.ID == 0 {
		// Journaled admission: assign the ID up front and make the frame
		// durable before any worker can see it. A frame that then fails
		// admission gets its journal pair settled by journalAbandon, so a
		// rejected frame is never replayed after a restart. Streaming frames
		// are journaled when their delivery completes instead (their backing
		// array is still filling here); until then durability is pending —
		// the documented streaming gap.
		f.ID = g.nextID.Add(1)
		if f.stream == nil {
			if err := g.journal.Append(f.ID, f.Header, f.Samples); err != nil {
				mJournalErrors.Inc()
				return 0, fmt.Errorf("%w: admitting frame %d: %v", ErrJournal, f.ID, err)
			}
			f.journalState.Store(journalAdmitted)
		}
	}
	for {
		g.mu.Lock()
		if !g.accepting {
			g.mu.Unlock()
			g.journalAbandon(f)
			return 0, ErrStopped
		}
		// Assign the ID at acceptance time so IDs are dense in acceptance
		// order even under racing submitters.
		if f.ID == 0 {
			f.ID = g.nextID.Add(1)
		}
		f.enqueued = time.Now()
		// The AIMD admission window gates ahead of the queue: a frame beyond
		// the current window sheds exactly as a full queue would. The check
		// is advisory under racing submitters (the window can overshoot by
		// the race width); the controller's feedback loop absorbs that.
		if g.windowOpen() {
			select {
			case g.queue <- f:
				g.pending.Add(1)
				g.accepted.Add(1)
				mAccepted.Inc()
				g.mu.Unlock()
				return f.ID, nil
			default:
			}
		} else {
			mAdmissionDeferred.Inc()
		}
		// Queue (or admission window) full: shed.
		switch g.cfg.Policy {
		case ShedReject:
			g.mu.Unlock()
			mShedRejected.Inc()
			g.journalAbandon(f)
			return 0, fmt.Errorf("%w: %d frames queued", ErrQueueFull, cap(g.queue))
		case ShedDropOldest:
			// Evict under the lock so two submitters can't each evict for
			// the same single slot and lose a frame without an outcome.
			select {
			case old := <-g.queue:
				mShedDropped.Inc()
				g.emit(old, Outcome{
					FrameID: old.ID, Source: old.Source, Kind: OutcomeShed,
					Err: fmt.Errorf("%w: evicted by newer frame %d (drop-oldest)", ErrShed, f.ID),
				})
			default:
				// A worker beat us to the oldest frame; the queue has space
				// now, retry the send.
			}
			g.mu.Unlock()
			continue
		default: // ShedBlock
			g.mu.Unlock()
			select {
			case <-g.space:
				continue
			case <-ctx.Done():
				mShedRejected.Inc()
				g.journalAbandon(f)
				return 0, fmt.Errorf("%w: canceled while blocked: %w", ErrQueueFull, ctx.Err())
			case <-g.ctx.Done():
				g.journalAbandon(f)
				return 0, ErrStopped
			}
		}
	}
}

// windowOpen reports whether the AIMD admission window, when enabled, has
// room for one more in-flight frame.
func (g *Gateway) windowOpen() bool {
	return g.admission == nil || g.pending.Load() < g.admission.Limit()
}

// journalAbandon settles the journal pair of a frame whose admission failed
// after its admit record was written: the completion marks it terminal so a
// restart never replays a frame the caller was told was rejected.
func (g *Gateway) journalAbandon(f *Frame) {
	if g.journal != nil && f.journalState.Load() == journalAdmitted {
		if err := g.journal.Complete(f.ID); err != nil {
			mJournalErrors.Inc()
		}
	}
}

// worker is one decode goroutine: dequeue, run the recovery ladder, emit
// the terminal outcome. On shutdown it first helps flush still-queued
// frames as shed outcomes so the exactly-one-outcome invariant holds
// through a hard stop.
func (g *Gateway) worker() {
	defer g.wg.Done()
	for {
		select {
		case <-g.ctx.Done():
			g.flushQueue()
			return
		case f := <-g.queue:
			g.signalSpace()
			tQueueWait.Hist().Observe(time.Since(f.enqueued).Nanoseconds())
			g.finish(f, g.decodeLadder(f))
		}
	}
}

// finish observes a processed frame's end-to-end latency (enqueue to
// terminal outcome — the p99 the sustained-throughput benchmark reports),
// feeds the admission controller, and emits the outcome.
func (g *Gateway) finish(f *Frame, o Outcome) {
	lat := time.Since(f.enqueued).Nanoseconds()
	tFrameLatency.Hist().Observe(lat)
	if g.admission != nil {
		// The controller keeps its own latency window rather than reading
		// the histogram back: metrics only observe (DESIGN.md §10).
		g.admission.observe(lat)
	}
	g.emit(f, o)
}

// signalSpace wakes at most one ShedBlock waiter after a dequeue.
func (g *Gateway) signalSpace() {
	select {
	case g.space <- struct{}{}:
	default:
	}
}

// flushQueue drains still-queued frames as shed outcomes (shutdown path).
// Multiple workers may flush concurrently; each dequeued frame is owned by
// exactly one of them.
func (g *Gateway) flushQueue() {
	for {
		select {
		case f := <-g.queue:
			mShedDrained.Inc()
			g.emit(f, Outcome{
				FrameID: f.ID, Source: f.Source, Kind: OutcomeShed,
				Err: fmt.Errorf("%w: gateway stopped before decode", ErrShed),
			})
		default:
			return
		}
	}
}

// emit records and publishes one terminal outcome for frame f. The journal
// completion is appended BEFORE the outcome is published: a crash after the
// channel send finds the pair settled, and a crash between the two leaves
// the frame in the journal's completed set, which the next life surfaces as
// a "completed before restart" notice — either way exactly one terminal
// outcome exists across lives.
func (g *Gateway) emit(f *Frame, o Outcome) {
	o.Replayed = f.Replayed
	if g.journal != nil {
		if f.stream != nil && f.journalState.CompareAndSwap(journalNone, journalSettled) {
			// Terminal before the streamed delivery was journaled: there is
			// no admit record to pair, and the settled state stops the
			// delivery path from writing one afterward.
		} else if f.journalState.Load() == journalAdmitted {
			if err := g.journal.Complete(o.FrameID); err != nil && !errors.Is(err, journal.ErrClosed) {
				mJournalErrors.Inc()
			}
		}
	}
	switch o.Kind {
	case OutcomeDecoded:
		g.decoded.Add(1)
		mDecoded.Inc()
		if o.Stage > StageFull {
			g.recovered.Add(1)
		}
	case OutcomeFailed:
		g.failed.Add(1)
		mFailed.Inc()
	case OutcomeShed:
		g.shed.Add(1)
	}
	g.outcomes <- o
	// Decrement before pulsing: a ShedBlock submitter woken by the pulse
	// re-checks pending against the admission limit, and one that reads the
	// old count parks again with nobody left to wake it.
	left := g.pending.Add(-1)
	if g.admission != nil {
		// Under admission control, capacity frees at the terminal outcome
		// (pending), not at dequeue — wake a ShedBlock waiter here too.
		g.signalSpace()
	}
	if left == 0 {
		select {
		case g.idle <- struct{}{}:
		default:
		}
	}
}

// Drain stops the gateway: no new frames are accepted, queued and
// in-flight frames are processed to completion, then the workers exit and
// the Outcomes channel closes. If ctx fires before the queue empties, the
// drain hardens into a stop — in-flight decodes are canceled cooperatively
// (their outcomes report choir.ErrCanceled) and still-queued frames are
// flushed as shed outcomes. Either way every accepted frame has exactly
// one terminal outcome by the time Drain returns. Drain is idempotent;
// concurrent calls share the first call's result.
func (g *Gateway) Drain(ctx context.Context) error {
	g.drainOnce.Do(func() {
		ctx = ctxutil.Background(ctx)
		g.mu.Lock()
		g.accepting = false
		g.mu.Unlock()
		// Wake any ShedBlock waiters parked before accepting flipped: the
		// pulse makes them re-check and observe ErrStopped.
		g.signalSpace()

		graceful := true
		for g.pending.Load() > 0 {
			select {
			case <-g.idle:
				// Re-check pending; spurious pulses are fine.
			case <-ctx.Done():
				graceful = false
				g.drainErr = fmt.Errorf("gateway: drain cut short: %w", ctx.Err())
			}
			if !graceful {
				break
			}
		}
		// Stop the workers. In the graceful case the queue is already
		// empty; in the hard case cancellation both unblocks in-flight
		// decodes (through their context) and routes workers into flushQueue.
		g.cancel()
		g.wg.Wait()
		// Workers are gone; anything still queued (frames that raced in
		// between the last flush check and worker exit) is flushed here.
		g.flushQueue()
		// All completions are journaled; close the log. Frames the hard-stop
		// path shed have completion records too (flushQueue emits through
		// the journal), so a clean drain leaves an empty journal to recover.
		if g.journal != nil {
			if err := g.journal.CloseReclaim(); err != nil && g.drainErr == nil {
				g.drainErr = fmt.Errorf("gateway: closing journal: %w", err)
			}
		}
		close(g.outcomes)
	})
	return g.drainErr
}

// poolFor returns the backend pool for one (PHY, backend name) pair,
// building it on first use.
func (g *Gateway) poolFor(p lora.Params, name string) (*backend.Pool, error) {
	key := poolKey{params: p, backend: name}
	g.poolMu.Lock()
	defer g.poolMu.Unlock()
	if pool, ok := g.pools[key]; ok {
		return pool, nil
	}
	pool, err := backend.NewPool(name, p)
	if err != nil {
		return nil, fmt.Errorf("gateway: building %s backend for %v: %w", name, p.SF, err)
	}
	g.pools[key] = pool
	return pool, nil
}

// Ladder returns the gateway's configured ladder as backend names in rung
// order.
func (g *Gateway) Ladder() []string {
	names := make([]string, len(g.rungs))
	for i, r := range g.rungs {
		names[i] = r.name
	}
	return names
}

// Healthy reports liveness: the worker pool is running and the gateway has
// not begun draining. Wire it to a /healthz check (obs.RegisterHealthCheck).
func (g *Gateway) Healthy() bool { return g.ctx.Err() == nil }

// Ready reports whether the gateway should receive traffic: it is accepting
// (recovery, if any, completed inside New before this gateway existed) and
// the queue and the admission window are below the shed threshold (the test
// submitFrame applies to an offered frame). What earlier frames decoded to
// does not enter it. Wire it to a /readyz check (obs.RegisterReadyCheck).
func (g *Gateway) Ready() bool {
	g.mu.Lock()
	accepting := g.accepting
	g.mu.Unlock()
	return accepting && len(g.queue) < cap(g.queue) && g.windowOpen()
}

// Recover inspects a journal directory without modifying it, reporting what
// a gateway configured with JournalDir=dir would replay at startup: the
// admitted-but-incomplete frames (in admission order) and the IDs whose
// terminal outcome is already durable. The actual replay happens inside New;
// this is the read-only preview for tooling and tests.
func Recover(dir string) (journal.Recovery, error) {
	incomplete, completed, maxID, err := journal.Scan(dir)
	if err != nil {
		return journal.Recovery{}, err
	}
	return journal.Recovery{Incomplete: incomplete, Completed: completed, MaxID: maxID}, nil
}
