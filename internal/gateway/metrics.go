package gateway

import "choir/internal/obs"

// Gateway metrics. Counters follow the repository's observe-only contract
// (DESIGN.md §10): the gateway's behavior — shedding, admission, ladder
// walking — is driven by its own internal state, never by reading a metric
// back. The separate Stats() accessor exists because shedding
// decisions must be visible even when obs recording is disabled.
var (
	mAccepted = obs.NewCounter("gateway.accepted")
	mDecoded  = obs.NewCounter("gateway.decoded")
	mFailed   = obs.NewCounter("gateway.failed")
	// mRecovered counts frames the full SIC stage lost but a later ladder
	// stage (relaxed tunables or single-strongest-user) recovered.
	mRecovered = obs.NewCounter("gateway.recovered")

	// Shedding, by reason: evicted by drop-oldest, rejected at submit, or
	// flushed from the queue during shutdown.
	mShedDropped  = obs.NewCounter("gateway.shed.dropped_oldest")
	mShedRejected = obs.NewCounter("gateway.shed.rejected")
	mShedDrained  = obs.NewCounter("gateway.shed.drained")

	// Decode attempts that panicked and were isolated into ErrDecodePanic.
	mPanics = obs.NewCounter("gateway.decode_panics")

	// Durability: frames re-enqueued from the write-ahead journal at
	// startup, and journal write failures (admission denials or completion
	// records that could not be appended).
	mReplayed      = obs.NewCounter("gateway.journal.replayed")
	mJournalErrors = obs.NewCounter("gateway.journal.errors")

	// AIMD admission control: window shrinks (p99 over target), grows
	// (under target), submissions deferred at the window, and the current
	// window as a gauge-by-delta (its value is the live admission limit).
	mAdmissionShrinks  = obs.NewCounter("gateway.admission.shrinks")
	mAdmissionGrows    = obs.NewCounter("gateway.admission.grows")
	mAdmissionDeferred = obs.NewCounter("gateway.admission.deferred")
	mAdmissionLimit    = obs.NewCounter("gateway.admission.limit")

	// Per-rung ladder visibility — attempts and successes — lives on each
	// rung, keyed by BACKEND NAME (gateway.stage.<backend>.attempts,
	// gateway.stage.<backend>.success), not by ladder position: two ladders that share a backend
	// aggregate into the same series, and reordering a ladder does not
	// silently re-label its history. See newRung in ladder.go.

	// TCP ingest health: connections shed at the MaxConns cap, and status
	// replies the peer never received (write failed or timed out).
	mConnShed    = obs.NewCounter("gateway.conn.shed")
	mReplyErrors = obs.NewCounter("gateway.conn.reply_errors")

	// Latency surfaces: time a frame waited in the queue, time one decode
	// attempt took, and a frame's end-to-end enqueue-to-outcome latency
	// (the p99 the sustained throughput benchmark reports).
	tQueueWait    = obs.NewTimer("gateway.queue_wait_ns")
	tDecode       = obs.NewTimer("gateway.decode_attempt_ns")
	tFrameLatency = obs.NewTimer("gateway.frame_latency_ns")
)
