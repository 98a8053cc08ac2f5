package gateway

import (
	"context"
	"errors"
	"fmt"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/exec"
	"choir/internal/lora"
)

// errBatchUnprocessed pre-marks batch items so the post-batch loop can tell
// "decoded with no error" from "never reached because the batch stopped on a
// fired context or panic" — the two are otherwise identical (Err == nil).
var errBatchUnprocessed = errors.New("gateway: batch item not processed")

// processBatch decodes a worker's drained mini-batch. Frames whose samples
// are still streaming in go through the per-frame ladder (their decode
// blocks on sample arrival; holding the rest of the batch behind that wait
// would forfeit the batching win). The rest replay the serial ladder's
// first-rung step — breaker gate, attempt accounting, per-frame seeds — but
// run the decodes as one backend.DecodeBatch call per PHY configuration, so
// one pooled backend's FFT plans and scratch stay hot across frames. Frames
// the first rung fails resume the ordinary ladder at rung 1 with one
// attempt consumed, so every frame's outcome, seed sequence and backoff
// schedule are exactly what the serial path would have produced.
func (g *Gateway) processBatch(frames []*Frame) {
	r0 := g.rungs[0]
	last := len(g.rungs) - 1
	var order []lora.Params
	groups := map[lora.Params][]*Frame{}
	for _, f := range frames {
		if f.stream != nil {
			g.finish(f, g.decodeLadder(f))
			continue
		}
		allowed, wasSkip := r0.breaker.allow()
		if !allowed {
			if wasSkip {
				r0.skips.Inc()
			}
			if last == 0 {
				// Nothing cheaper to fall through to.
				g.finish(f, g.failedOutcome(f, 0, nil))
			} else {
				g.finish(f, g.runLadder(f, 1, 0, nil))
			}
			continue
		}
		p := f.Header.Params
		if _, ok := groups[p]; !ok {
			order = append(order, p)
		}
		groups[p] = append(groups[p], f)
	}
	for _, p := range order {
		g.decodeGroup(p, groups[p], r0)
	}
}

// decodeGroup runs one same-PHY group of frames through the first rung as a
// single batched decode and routes each frame's result onward.
func (g *Gateway) decodeGroup(p lora.Params, frames []*Frame, r0 *rung) {
	pool, err := g.poolFor(p, r0.name)
	if err != nil {
		// The same failure the serial attempt would hit before decoding.
		for _, f := range frames {
			r0.attempts.Inc()
			g.finishFirstRung(f, r0, nil, 0, err)
		}
		return
	}
	items := make([]backend.BatchItem, len(frames))
	for i, f := range frames {
		r0.attempts.Inc()
		items[i] = backend.BatchItem{
			Samples:    f.Samples,
			PayloadLen: f.Header.PayloadLen,
			// Rung index 0: the same per-frame seed the serial ladder derives.
			Seed: exec.DeriveSeed(g.cfg.Seed, f.ID, 0),
			Res:  &choir.Result{},
			Err:  errBatchUnprocessed,
		}
	}
	ctx := g.ctx
	if g.cfg.DecodeTimeout > 0 {
		// In batched mode the timeout bounds the whole first-rung batch
		// (documented on Config.Batch); per-frame ladder resumes re-derive
		// per-attempt deadlines as usual.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.DecodeTimeout)
		defer cancel()
	}
	batchErr := g.runBatch(ctx, pool, items, r0.name)
	for i, f := range frames {
		it := &items[i]
		if errors.Is(it.Err, errBatchUnprocessed) {
			// Never decoded: the batch stopped early. Give the frame the
			// typed error its own serial attempt would have observed.
			cause := batchErr
			if cause == nil {
				cause = errors.New("batch stopped without error")
			}
			typed := choir.ErrCanceled
			if errors.Is(cause, context.DeadlineExceeded) {
				typed = choir.ErrDeadline
			}
			if errors.Is(cause, ErrDecodePanic) {
				// A panic mid-batch poisons the remaining items; they fall
				// through to the ladder's lower rungs like any rung failure.
				g.finishFirstRung(f, r0, nil, 0, cause)
				continue
			}
			g.finishFirstRung(f, r0, nil, 0, fmt.Errorf("%w: %w", typed, cause))
			continue
		}
		payloads, users := collectPayloads(it.Res)
		err := it.Err
		if err == nil && len(payloads) == 0 {
			err = ErrNoPayloads
		}
		g.finishFirstRung(f, r0, payloads, users, err)
	}
}

// runBatch is the panic-isolated batched decode: one pooled backend decodes
// every item in order through backend.DecodeBatch, timed as a single span on
// gateway.batch_decode_ns.
func (g *Gateway) runBatch(ctx context.Context, pool *backend.Pool, items []backend.BatchItem, name string) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			err = fmt.Errorf("%w: backend %s: %v", ErrDecodePanic, name, rec)
		}
	}()
	b := pool.Get(items[0].Seed)
	defer pool.Put(b)
	sp := tBatchDecode.Start()
	defer sp.Stop()
	return backend.DecodeBatch(ctx, b, items)
}

// finishFirstRung replays the serial ladder's handling of a first-rung
// attempt outcome for one batched frame: breaker and counter bookkeeping,
// then either the decoded outcome or a resume of the ladder at rung 1 with
// one attempt consumed.
func (g *Gateway) finishFirstRung(f *Frame, r0 *rung, payloads [][]byte, users int, err error) {
	if err == nil {
		r0.breaker.record(true)
		r0.success.Inc()
		g.finish(f, Outcome{
			FrameID: f.ID, Source: f.Source, Kind: OutcomeDecoded,
			Stage: 0, Backend: r0.name, Attempts: 1,
			Users: users, Payloads: payloads,
		})
		return
	}
	if g.ctx.Err() != nil {
		// Shutting down: don't poison the breaker, don't walk lower rungs.
		g.finish(f, g.failedOutcome(f, 1, err))
		return
	}
	tripped := r0.breaker.isTripped()
	r0.breaker.record(false)
	if !tripped && r0.breaker.isTripped() {
		r0.trips.Inc()
	}
	g.finish(f, g.runLadder(f, 1, 1, err))
}
