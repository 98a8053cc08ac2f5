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
	"sync"
	"sync/atomic"
	"time"

	"choir/internal/ctxutil"
	"choir/internal/gateway/journal"
	"choir/internal/trace"
)

// Config parameterizes a Gateway. A zero count or duration selects the
// documented default; New refuses a negative one.
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
	// AdmissionTarget, when positive, enables AIMD admission control: every
	// 32 terminal outcomes the gateway halves the queue's limit if their
	// end-to-end latency p99 exceeds the target, or raises it by one, within
	// [1, queue capacity]. Like Queue, the limit bounds queued frames, not
	// those being decoded; a frame offered at it is shed by Policy exactly
	// as at a full queue. Zero — the default — keeps the queue capacity.
	AdmissionTarget time.Duration
}

// checkSigns refuses a negative count or duration: zero selects a field's
// default (or "off"), and a negative one is a mistake rather than a second
// spelling of zero.
func (c Config) checkSigns() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"Queue", int64(c.Queue)},
		{"Workers", int64(c.Workers)},
		{"MaxConns", int64(c.MaxConns)},
		{"DecodeTimeout", int64(c.DecodeTimeout)},
		{"ConnTimeout", int64(c.ConnTimeout)},
		{"AdmissionTarget", int64(c.AdmissionTarget)},
	} {
		if f.v < 0 {
			return fmt.Errorf("gateway: negative %s", f.name)
		}
	}
	return nil
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder()
	}
	if c.MaxConns == 0 {
		c.MaxConns = 64
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
	// admitted and settled track the frame's write-ahead journal records:
	// its admit is written, and it is terminal (no admit may follow). Both
	// are guarded by journalMu, which is held across each record's write, so
	// a settle arriving during the admit's append waits for it.
	journalMu         sync.Mutex
	admitted, settled bool
}

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
	limit    atomic.Int64  // most frames queue may hold: cap(queue), or the AIMD window
	space    chan struct{} // pulsed after each dequeue; wakes ShedBlock waiters
	outcomes chan Outcome

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex // guards accepting, every send on queue, eviction and its close
	accepting bool

	nextID atomic.Uint64

	rungs []*rung

	// journal is the write-ahead frame log (nil when Config.JournalDir is
	// empty); priorCompleted lists frames a previous life admitted AND
	// completed — their outcome is durable but may never have been reported.
	journal        *journal.Writer
	priorCompleted []uint64
	// admitting is held shared by a journaled Submit until it is queued or
	// refused, and by Drain, after cancel has released blocked submitters,
	// to close the journal: no refused frame's completion follows the close.
	admitting sync.RWMutex

	// admission is the AIMD overload controller that moves limit (nil when
	// Config.AdmissionTarget is zero).
	admission *admissionController

	accepted, decoded, failed, shed, recovered, replayed atomic.Int64

	drainOnce sync.Once
	drainErr  error
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
	if err := cfg.checkSigns(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if _, err := ParseShedPolicy(cfg.Policy.String()); err != nil {
		return nil, fmt.Errorf("gateway: invalid shed policy %d", int(cfg.Policy))
	}
	var rungs []*rung
	seen := map[string]bool{}
	for _, name := range cfg.Ladder {
		if seen[name] {
			return nil, fmt.Errorf("gateway: backend %q appears twice in ladder", name)
		}
		seen[name] = true
		r, err := newRung(name)
		if err != nil {
			return nil, fmt.Errorf("gateway: ladder: %w", err)
		}
		rungs = append(rungs, r)
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
		rungs:          rungs,
		journal:        jw,
		priorCompleted: rec.Completed,
	}
	g.limit.Store(int64(queueCap))
	if cfg.AdmissionTarget > 0 {
		g.admission = newAdmissionController(cfg.AdmissionTarget, &g.limit)
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
		f.admitted = true // Open re-journaled the admit
		g.queue <- f
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
// and produces no outcome; so was a header trace.Header.Validate refuses,
// which is not journaled either. ctx bounds only the submission itself.
func (g *Gateway) Submit(ctx context.Context, source string, h trace.Header, samples []complex128) (uint64, error) {
	if err := h.Validate(); err != nil {
		return 0, fmt.Errorf("gateway: refusing frame from %s: %w", source, err)
	}
	return g.submitFrame(ctx, &Frame{Source: source, Header: h, Samples: samples})
}

// submitFrame is Submit's body, shared with the streaming ingest path (which
// attaches a streamBuffer to the frame before submission).
func (g *Gateway) submitFrame(ctx context.Context, f *Frame) (uint64, error) {
	ctx = ctxutil.Background(ctx)
	if g.journal != nil {
		// Journaled admission: the admit record carries the ID, so it is
		// assigned up front, and the frame is durable before any worker can
		// see it. A streamed frame's samples are still arriving here; it is
		// journaled at delivery instead (handleStreamConn) — until then
		// durability is pending, the documented streaming gap.
		f.ID = g.nextID.Add(1)
		if f.stream == nil {
			g.admitting.RLock()
			defer g.admitting.RUnlock()
			if err := g.journalAdmit(f); err != nil {
				return 0, err
			}
		}
	}
	for {
		g.mu.Lock()
		if !g.accepting {
			g.mu.Unlock()
			g.journalSettle(f)
			return 0, ErrStopped
		}
		// Assign the ID at acceptance time so IDs are dense in acceptance
		// order even under racing submitters.
		if f.ID == 0 {
			f.ID = g.nextID.Add(1)
		}
		f.enqueued = time.Now()
		if g.room() {
			// Every send happens under g.mu and workers only take, so a
			// queue below its limit (at most its capacity) has room.
			g.queue <- f
			g.accepted.Add(1)
			mAccepted.Inc()
			g.mu.Unlock()
			return f.ID, nil
		}
		if g.admission != nil {
			mAdmissionDeferred.Inc()
		}
		// Queue at its limit: shed.
		switch g.cfg.Policy {
		case ShedReject:
			g.mu.Unlock()
			mShedRejected.Inc()
			g.journalSettle(f)
			return 0, fmt.Errorf("%w: %d frames queued", ErrQueueFull, g.limit.Load())
		case ShedDropOldest:
			// Evict under the lock so two submitters can't each evict for
			// the same single slot and lose a frame without an outcome. The
			// queue is at a limit of at least one, so it holds a frame
			// unless a worker just took it, which makes room as well.
			select {
			case old := <-g.queue:
				mShedDropped.Inc()
				g.emit(old, Outcome{
					FrameID: old.ID, Source: old.Source, Kind: OutcomeShed,
					Err: fmt.Errorf("%w: evicted by newer frame %d (drop-oldest)", ErrShed, f.ID),
				})
			default:
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
				g.journalSettle(f)
				return 0, fmt.Errorf("%w: canceled while blocked: %w", ErrQueueFull, ctx.Err())
			case <-g.ctx.Done():
				g.journalSettle(f)
				return 0, ErrStopped
			}
		}
	}
}

// room reports whether the queue is below its limit: the one admission
// test, shared by submitFrame and Ready.
func (g *Gateway) room() bool { return int64(len(g.queue)) < g.limit.Load() }

// journalAdmit writes f's admit record once its samples are complete: a
// Submit frame's before it is queued, a streamed frame's at delivery. A
// frame already settled (a stream whose decode ended first) gets no admit.
// A settle arriving during the append waits on journalMu and then writes
// the completion itself, before its outcome is published.
func (g *Gateway) journalAdmit(f *Frame) error {
	f.journalMu.Lock()
	defer f.journalMu.Unlock()
	if g.journal == nil || f.settled {
		return nil
	}
	if err := g.journal.Append(f.ID, f.Header, f.Samples); err != nil {
		if errors.Is(err, journal.ErrClosed) {
			return ErrStopped // only Drain closes the journal
		}
		mJournalErrors.Inc()
		return fmt.Errorf("%w: admitting frame %d: %v", ErrJournal, f.ID, err)
	}
	f.admitted = true
	return nil
}

// journalSettle marks f terminal in the journal, from emit or from a
// refused admission, and writes its completion if its admit was written:
// a frame refused after its admit landed is never replayed.
func (g *Gateway) journalSettle(f *Frame) {
	f.journalMu.Lock()
	defer f.journalMu.Unlock()
	if f.admitted && !f.settled {
		if err := g.journal.Complete(f.ID); err != nil {
			mJournalErrors.Inc()
		}
	}
	f.settled = true
}

// worker is one decode goroutine: dequeue, run the recovery ladder, emit
// the terminal outcome. It leaves once Drain has closed the queue and the
// queue is empty; on a hard stop it first helps flush still-queued frames
// as shed outcomes so the exactly-one-outcome invariant holds.
func (g *Gateway) worker() {
	defer g.wg.Done()
	for {
		select {
		case <-g.ctx.Done():
			g.flushQueue()
			return
		case f, ok := <-g.queue:
			if !ok {
				return
			}
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

// flushQueue drains still-queued frames as shed outcomes. It runs only
// after Drain closed the queue. Multiple workers may flush concurrently;
// each dequeued frame is owned by exactly one of them.
func (g *Gateway) flushQueue() {
	for f := range g.queue {
		mShedDrained.Inc()
		g.emit(f, Outcome{
			FrameID: f.ID, Source: f.Source, Kind: OutcomeShed,
			Err: fmt.Errorf("%w: gateway stopped before decode", ErrShed),
		})
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
	g.journalSettle(f)
	switch o.Kind {
	case OutcomeDecoded:
		g.decoded.Add(1)
		mDecoded.Inc()
		if o.Stage > 0 {
			g.recovered.Add(1)
		}
	case OutcomeFailed:
		g.failed.Add(1)
		mFailed.Inc()
	case OutcomeShed:
		g.shed.Add(1)
	}
	g.outcomes <- o
}

// Drain stops the gateway: no new frames are accepted, queued and
// in-flight frames are processed to completion, then the workers exit and
// the Outcomes channel closes. If ctx fires before the workers finish, the
// drain hardens into a stop — in-flight decodes are canceled cooperatively
// (their outcomes report choir.ErrCanceled) and still-queued frames are
// flushed as shed outcomes. Either way every accepted frame has exactly
// one terminal outcome by the time Drain returns, and Drain reports the cut
// only if ctx fired while one still lacked it. Drain is idempotent;
// concurrent calls share the first call's result.
func (g *Gateway) Drain(ctx context.Context) error {
	g.drainOnce.Do(func() {
		ctx = ctxutil.Background(ctx)
		// Close under g.mu: no submitter is mid-send, and every later one
		// sees accepting false, so nothing is sent on the closed queue.
		g.mu.Lock()
		g.accepting = false
		close(g.queue)
		g.mu.Unlock()
		// Wake a ShedBlock waiter parked before accepting flipped: it
		// re-checks and observes ErrStopped.
		g.signalSpace()

		workers := make(chan struct{})
		go func() {
			g.wg.Wait()
			close(workers)
		}()
		select {
		case <-workers:
		case <-ctx.Done():
			// Cut short only if an accepted frame still lacks its outcome;
			// Accepted is frozen now that accepting is false.
			if st := g.Stats(); st.Accepted > st.Decoded+st.Failed+st.Shed {
				g.drainErr = fmt.Errorf("gateway: drain cut short: %w", ctx.Err())
			}
		}
		// Stop the workers. After a graceful drain they are gone already; in
		// the hard case cancellation both unblocks in-flight decodes
		// (through their context) and routes workers into flushQueue. It
		// also releases submitters still blocked under ShedBlock.
		g.cancel()
		<-workers
		// A gateway built without workers still holds its queue.
		g.flushQueue()
		// All completions are journaled; close the log. Frames the hard-stop
		// path shed have completion records too (flushQueue emits through
		// the journal), so a clean drain leaves an empty journal to recover.
		if g.journal != nil {
			g.admitting.Lock()
			defer g.admitting.Unlock()
			if err := g.journal.CloseReclaim(); err != nil && g.drainErr == nil {
				g.drainErr = fmt.Errorf("gateway: closing journal: %w", err)
			}
		}
		close(g.outcomes)
	})
	return g.drainErr
}

// Healthy reports liveness: the worker pool is running and the gateway has
// not begun draining. Wire it to a /healthz check (obs.RegisterHealthCheck).
func (g *Gateway) Healthy() bool { return g.ctx.Err() == nil }

// Ready reports whether the gateway should receive traffic: it is accepting
// (recovery, if any, completed inside New before this gateway existed) and
// the queue is below its limit — room(), the test submitFrame applies to an
// offered frame. What earlier frames decoded to does not enter it. Wire it
// to a /readyz check (obs.RegisterReadyCheck).
func (g *Gateway) Ready() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.accepting && g.room()
}
