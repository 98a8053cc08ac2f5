package choir

import (
	"errors"

	"choir/internal/obs"
)

// Decoder observability: per-stage latency timers along the
// dechirp → FFT → peak search → residual minimization → SIC chain, and
// outcome counters for frame- and user-level failures, all registered in
// the process-wide obs registry. Recording is gated on obs.Enable and is
// allocation-free when disabled (BenchmarkDecodeMetricsOnVsOff pins that),
// and none of it feeds back into decoding — metrics can never change
// results or seed derivation (DESIGN.md §10).
var (
	mDecodeTimer     = obs.NewTimer("choir.decode_ns")
	mTeamDecodeTimer = obs.NewTimer("choir.team_decode_ns")

	mStageDechirp  = obs.NewTimer("choir.stage.dechirp_ns")
	mStageFFT      = obs.NewTimer("choir.stage.fft_ns")
	mStagePeaks    = obs.NewTimer("choir.stage.peak_search_ns")
	mStageResidual = obs.NewTimer("choir.stage.residual_min_ns")
	mStagePreamble = obs.NewTimer("choir.stage.preamble_ns")
	mStageSIC      = obs.NewTimer("choir.stage.sic_ns")
	mStageData     = obs.NewTimer("choir.stage.data_ns")

	mSICPhases = obs.NewCounter("choir.sic.phases")

	mScanBlocks  = obs.NewCounter("choir.scan.blocks")
	mScanSkipped = obs.NewCounter("choir.scan.blocks_skipped")

	mDecodes          = obs.NewCounter("choir.decode.calls")
	mDecodeOK         = obs.NewCounter("choir.decode.ok")
	mUsersDetected    = obs.NewCounter("choir.users.detected")
	mUserDecoded      = obs.NewCounter("choir.users.decoded")
	mUserCRCFailed    = obs.NewCounter("choir.users.crc_failed")
	mUserTrackingLost = obs.NewCounter("choir.users.tracking_lost")
)

// mDecodeErr holds one choir.decode.err.<class> counter per errClasses row.
var mDecodeErr = func() (c [len(errClasses)]*obs.Counter) {
	for i, e := range errClasses {
		c[i] = obs.NewCounter("choir.decode.err." + e.name)
	}
	return c
}()

// countDecodeErr counts a frame-level decode outcome: ok for nil, otherwise
// the error's class.
func countDecodeErr(err error) {
	if err == nil {
		mDecodeOK.Inc()
		return
	}
	mDecodeErr[errClass(err)].Inc()
}

// countUserOutcome classifies one separated user's payload outcome.
func countUserOutcome(u *User) {
	switch {
	case u.Decoded():
		mUserDecoded.Inc()
	case errors.Is(u.Err, ErrTrackingLost):
		mUserTrackingLost.Inc()
	default:
		mUserCRCFailed.Inc()
	}
}
