package gateway

import (
	"context"
	"errors"
	"fmt"

	"choir/internal/backend"
	"choir/internal/choir"
	"choir/internal/obs"
)

// Stage is a rung INDEX into the gateway's decode-recovery ladder. The
// ladder itself is an ordered list of registered backend names
// (Config.Ladder); Outcome.Stage reports how far down it a frame went.
// Everything human-facing (metrics, logs, Outcome.Backend) is keyed by
// backend name.
type Stage int

// Rung indices of the default ladder (see DefaultLadder). Kept as named
// constants because tests and operators reason about the default ladder's
// shape; custom ladders index past them freely.
const (
	// StageFull is the paper's full Choir pipeline: phased SIC, fine
	// offset refinement, the default peak and matching tunables.
	StageFull Stage = iota
	// StageRelaxed decodes with loosened tunables — lower peak threshold,
	// wider fingerprint-matching tolerance, wider per-phase dynamic range —
	// recovering frames whose offsets drifted or whose peaks sank below the
	// default gates (clipping, interferers, oscillator steps).
	StageRelaxed
	// StageStrongest is the cheap last resort: track only the single
	// strongest user with SIC disabled. It abandons the collision's weak
	// users to salvage at least one payload per capture.
	StageStrongest
)

// String implements fmt.Stringer with the historical rung names for the
// default ladder's indices. Outcome.Backend carries the authoritative
// backend name.
func (s Stage) String() string {
	switch s {
	case StageFull:
		return "full"
	case StageRelaxed:
		return "relaxed"
	case StageStrongest:
		return "strongest"
	default:
		return fmt.Sprintf("rung%d", int(s))
	}
}

// DefaultLadder is the ladder Config.Ladder defaults to: the paper's full
// Choir pipeline, the relaxed-tunables rung, and the
// single-strongest-user salvage — the same recovery sequence the gateway
// ran before the rungs became pluggable backends.
func DefaultLadder() []string { return []string{"choir", "relaxed", "strongest"} }

// rung is one configured ladder position: a registered backend name plus
// its name-keyed metrics. Two gateways with a shared backend name share the
// process-wide metric instances (obs registration is idempotent by name) and
// nothing else: a rung keeps no state between frames.
type rung struct {
	name string

	attempts *obs.Counter
	success  *obs.Counter
}

func newRung(name string) *rung {
	return &rung{
		name:     name,
		attempts: obs.NewCounter("gateway.stage." + name + ".attempts"),
		success:  obs.NewCounter("gateway.stage." + name + ".success"),
	}
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
	pool, err := g.poolFor(f.Header.Params, r.name)
	if err != nil {
		return nil, 0, err
	}
	b := pool.Get()
	defer pool.Put(b)
	sp := tDecode.Start()
	res, err := g.decodeFrame(ctx, b, f)
	sp.Stop()
	if err != nil {
		return nil, 0, err
	}
	payloads, users = collectPayloads(res)
	if len(payloads) == 0 {
		return nil, users, ErrNoPayloads
	}
	return payloads, users, nil
}

// collectPayloads pulls the recovered payloads out of a decode result.
func collectPayloads(res *choir.Result) ([][]byte, int) {
	var payloads [][]byte
	for _, u := range res.Users {
		if u.Decoded() {
			payloads = append(payloads, u.Payload)
		}
	}
	return payloads, len(res.Users)
}

// decodeFrame runs one backend over one frame's samples, routing streaming
// frames through the backend's StreamDecoder capability so preamble
// detection overlaps the network still delivering data symbols. Backends
// without the capability (and later rungs, once the stream completed — the
// wait then returns immediately) decode the full buffer; either way the result
// is bit-identical to decoding the completed capture.
func (g *Gateway) decodeFrame(ctx context.Context, b backend.Backend, f *Frame) (*choir.Result, error) {
	if f.stream == nil {
		return backend.Decode(ctx, b, f.Samples, f.Header.PayloadLen)
	}
	if sd, ok := b.(backend.StreamDecoder); ok {
		res := &choir.Result{}
		if err := sd.DecodeStreamCtxInto(ctx, res, f.Samples, f.Header.PayloadLen, f.stream.Avail); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := f.stream.Avail(ctx, len(f.Samples)); err != nil {
		return nil, err
	}
	return backend.Decode(ctx, b, f.Samples, f.Header.PayloadLen)
}
