// Package backend turns the repository's collision decoder into a pluggable
// platform: every collision-resolution algorithm — Choir's offset-fingerprint
// SIC, the gateway's relaxed and strongest-user fallbacks, SS5G-style
// slot-shift recovery, and direct superposed-frame decoding — implements one
// Backend interface and registers itself by name. Consumers (the gateway
// recovery ladder, the sim comparison harness, the CLIs) select algorithms
// by name and drive them through the same contract, so alternatives are
// compared on identical IQ under identical impairments.
//
// The contract carries the engine's two standing invariants:
//
//   - Determinism: a Backend's results depend only on its construction
//     parameters and the decode inputs — never on which goroutine runs it
//     or what it decoded before. A pooled instance therefore decodes
//     exactly like a fresh one (TestPooledInstanceMatchesFreshForEveryBackend).
//   - Scratch ownership: a Backend owns internal scratch and is NOT safe for
//     concurrent use; DecodeCtxInto recycles the caller's Result storage so
//     steady-state decodes stay allocation-free where the algorithm allows.
package backend

import (
	"context"

	"choir/internal/choir"
	"choir/internal/lora"
)

// Backend decodes one frame's IQ window into per-user payloads and
// diagnostics. Implementations wrap their algorithm's scratch state; create
// one per goroutine or borrow from a Pool. One call may still use several
// cores: a choir.Decoder shares four of its window loops with helper lanes
// it owns, joined before the call returns, so a caller sees one goroutine's
// contract — the same result at any GOMAXPROCS
// (TestPooledInstanceMatchesFreshForEveryBackend runs at 1, 2 and 4), context
// polls on the calling goroutine, and a panic raised there.
type Backend interface {
	// Name returns the backend's registered name ("choir", "slotshift", ...).
	Name() string
	// Params returns the PHY configuration the backend was built for.
	Params() lora.Params
	// Reseed is accepted and ignored: no backend keeps random state
	// between decodes. It stays declared, with an empty body in every
	// implementation, only because the frozen benchmark/ package calls it
	// (ROADMAP item 9).
	Reseed(seed uint64)
	// DecodeCtxInto decodes samples into res, recycling res's storage (the
	// contract of choir.Decoder.DecodeCtxInto): res must be non-nil, is
	// fully overwritten on success, and must not be shared across
	// goroutines. Cancellation is cooperative — implementations poll ctx at
	// stage boundaries and return an error wrapping choir.ErrCanceled or
	// choir.ErrDeadline. Failures wrap the choir/lora error taxonomy so
	// callers classify outcomes with errors.Is.
	DecodeCtxInto(ctx context.Context, res *choir.Result, samples []complex128, payloadLen int) error
}

// Decode runs b on samples with a fresh Result — the convenience shape for
// tests and one-shot callers.
func Decode(ctx context.Context, b Backend, samples []complex128, payloadLen int) (*choir.Result, error) {
	res := &choir.Result{}
	if err := b.DecodeCtxInto(ctx, res, samples, payloadLen); err != nil {
		return nil, err
	}
	return res, nil
}
