package gateway

import (
	"context"
	"errors"
	"fmt"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/obs"
)

// Stage is a rung index into the gateway's decode-recovery ladder: 0 is the
// ladder's first rung. The ladder itself is an ordered list of registered
// backend names (Config.Ladder); Outcome.Stage reports how far down it a
// frame went. Everything human-facing (metrics, logs, Outcome.Backend) is
// keyed by backend name.
type Stage int

// DefaultLadder is the ladder Config.Ladder defaults to: the paper's full
// Choir pipeline, the relaxed-tunables rung, and the
// single-strongest-user salvage — the same recovery sequence the gateway
// ran before the rungs became pluggable backends.
func DefaultLadder() []string { return []string{"choir", "relaxed", "strongest"} }

// rung is one configured ladder position: a registered backend name, the
// pool its decodes borrow instances from at the frame's PHY, and its
// name-keyed metrics. Two gateways with a shared backend name share the
// process-wide metric instances (obs registration is idempotent by name) and
// nothing else. The pool's idle instances are all a rung keeps between
// frames, and no result depends on them.
type rung struct {
	name string
	pool *backend.Pool

	attempts *obs.Counter
	success  *obs.Counter
}

// newRung fails, with backend.New's error, on a name not in the table.
func newRung(name string) (*rung, error) {
	pool, err := backend.NewPool(name)
	if err != nil {
		return nil, err
	}
	return &rung{
		name:     name,
		pool:     pool,
		attempts: obs.NewCounter("gateway.stage." + name + ".attempts"),
		success:  obs.NewCounter("gateway.stage." + name + ".success"),
	}, nil
}

// decodeLadder runs one frame down the recovery ladder and returns its
// terminal outcome. Each rung is tried once, in order: a rung is a pure
// function of (rung config, samples), so a second try would repeat an answer
// the ladder already has — a missed packet is recovered by the sender's next
// transmission, which brings new samples. The walk stops at the first rung
// that returns a payload, when the gateway context fires, or when the
// frame's stream aborted (its samples will never complete).
func (g *Gateway) decodeLadder(f *Frame) Outcome {
	o := Outcome{FrameID: f.ID, Source: f.Source}
	var err error
	for i, r := range g.rungs {
		o.Attempts = i + 1
		r.attempts.Inc()
		var payloads [][]byte
		var users int
		if payloads, users, err = g.attempt(f, r); err == nil {
			r.success.Inc()
			if i > 0 {
				mRecovered.Inc()
			}
			o.Kind, o.Stage, o.Backend, o.Users, o.Payloads = OutcomeDecoded, Stage(i), r.name, users, payloads
			return o
		}
		if g.ctx.Err() != nil || errors.Is(err, ErrStreamAborted) {
			break
		}
	}
	o.Kind = OutcomeFailed
	o.Err = fmt.Errorf("%w: %w", ErrLadderExhausted, err)
	return o
}

// attempt runs one decode at one ladder rung. A panic anywhere inside the
// backend is recovered into ErrDecodePanic, isolating poisoned frames to a
// typed per-frame error. Each attempt gets its own deadline (DecodeTimeout)
// derived from the gateway context, enforced cooperatively by the backend's
// cancellation points.
func (g *Gateway) attempt(f *Frame, r *rung) (payloads [][]byte, users int, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			payloads, users = nil, 0
			err = fmt.Errorf("%w: backend %s: %v", ErrDecodePanic, r.name, rec)
		}
	}()
	ctx := g.ctx
	if g.cfg.DecodeTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.cfg.DecodeTimeout)
		defer cancel()
	}
	p := f.Header.Params
	b, err := r.pool.Get(p)
	if err != nil {
		return nil, 0, fmt.Errorf("gateway: building %s backend for %v: %w", r.name, p.SF, err)
	}
	defer r.pool.Put(p, b)
	sp := tDecode.Start()
	res, err := g.decodeFrame(ctx, b, f)
	sp.Stop()
	if err != nil {
		return nil, 0, err
	}
	payloads, users = res.DecodedPayloads(), len(res.Users)
	if len(payloads) == 0 {
		return nil, users, ErrNoPayloads
	}
	return payloads, users, nil
}

// decodeFrame runs one backend over one frame's samples. A streaming frame
// on a Choir-pipeline rung goes through the decoder's incremental entry
// point (backend.Decoder), so preamble detection overlaps the network still
// delivering data symbols. Other backends (and later rungs, once the stream
// completed — the wait then returns immediately) decode the full buffer;
// either way the result is bit-identical to decoding the completed capture.
func (g *Gateway) decodeFrame(ctx context.Context, b backend.Backend, f *Frame) (*choir.Result, error) {
	if f.stream == nil {
		return backend.Decode(ctx, b, f.Samples, f.Header.PayloadLen)
	}
	if dec := backend.Decoder(b); dec != nil {
		res := &choir.Result{}
		if err := dec.DecodeIncrementalCtxInto(ctx, res, f.Samples, f.Header.PayloadLen, f.stream.Avail); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := f.stream.Avail(ctx, len(f.Samples)); err != nil {
		return nil, err
	}
	return backend.Decode(ctx, b, f.Samples, f.Header.PayloadLen)
}
