package gateway

import "errors"

// The gateway's error taxonomy. Every failed or shed outcome carries an
// error chain that errors.Is-matches exactly one of these sentinels (or one
// of the decoder's own sentinels — choir.ErrBadIQ, choir.ErrCanceled, ... —
// when the failure happened inside a decode attempt).
var (
	// ErrStopped reports a Submit after the gateway began draining: the
	// frame was never accepted and will produce no outcome.
	ErrStopped = errors.New("gateway: stopped")

	// ErrQueueFull reports a Submit rejected under ShedReject (or a
	// ShedBlock submit whose own context fired while waiting): the frame
	// was never accepted and will produce no outcome.
	ErrQueueFull = errors.New("gateway: queue full")

	// ErrDecodePanic reports a decode attempt that panicked; the panic was
	// recovered inside the worker and converted into this per-frame error,
	// so one poisoned capture cannot take the service down.
	ErrDecodePanic = errors.New("gateway: decode panicked")

	// ErrNoPayloads reports a decode attempt that completed without error
	// but recovered no payload — every detected user failed CRC or tracking.
	// The ladder treats it like any other rung failure and moves to the next
	// rung.
	ErrNoPayloads = errors.New("gateway: no payloads recovered")

	// ErrShed marks a frame that was accepted but never decoded: evicted by
	// the drop-oldest policy or flushed during shutdown. Shed outcomes wrap
	// ErrShed with the specific reason.
	ErrShed = errors.New("gateway: frame shed")

	// ErrLadderExhausted reports that a frame's ladder walk ended without
	// recovering a payload: every rung was tried, or the walk stopped early
	// on shutdown or an aborted stream. It wraps the last attempt's error.
	ErrLadderExhausted = errors.New("gateway: recovery ladder exhausted")

	// ErrStreamAborted reports a streaming frame whose connection died
	// before the full capture arrived. The ladder stops immediately: the
	// samples will never complete, so no later rung could see more of them.
	ErrStreamAborted = errors.New("gateway: stream aborted before frame completed")

	// ErrNoTraces reports an ingest directory that exists but holds no
	// *.iq files — distinct from the directory itself being missing.
	ErrNoTraces = errors.New("gateway: no traces found")

	// ErrJournal reports a write-ahead journal failure during admission or
	// recovery: the frame (or the gateway, at New) could not be made
	// durable. A Submit failing with ErrJournal was never accepted and will
	// produce no outcome.
	ErrJournal = errors.New("gateway: journal failure")
)
