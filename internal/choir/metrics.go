package choir

import (
	"errors"
	"time"

	"choir/internal/obs"
)

// Decoder observability: exclusive stage times along the dechirp → FFT →
// peak search → residual minimization → SIC chain, and outcome counters for
// frame- and user-level failures, all registered in the process-wide obs
// registry. Recording is gated on obs.Enable and is allocation-free in
// either state (TestFanOutSteadyStateZeroAllocs pins both), and none of it
// feeds back into decoding — metrics can never change results or seed
// derivation (DESIGN.md §10).
//
// Stage times and choir.decode_busy_ns are lane wall time, not CPU time: a
// lane's clock keeps running while the scheduler has it off a core. Where a
// decode's goroutines outnumber free cores, busy time over wall time — the
// lanes figure of BenchmarkDecodeBySF — can exceed the core count (2.1–2.8
// at -cpu 4 on 2 vCPUs).
var (
	mDecodeTimer     = obs.NewTimer("choir.decode_ns")
	mTeamDecodeTimer = obs.NewTimer("choir.team_decode_ns")
	mDecodeBusy      = obs.NewHistogram("choir.decode_busy_ns")

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

// stage is a step of the decode pipeline that a lane's stageClock charges
// time to.
type stage uint8

const (
	stageOther    stage = iota // a decode's time in no other stage: checks, grouping, mapping, payload decoding
	stageDechirp               // dechirpWindow
	stageFFT                   // paddedSpectrum, combDecide's transform
	stagePeaks                 // a spectrum's noise floor and peak list
	stageResidual              // searchOffset: Algm. 1's golden search
	stagePreamble              // estimatePreamble
	stageSIC                   // a preamble SIC phase's subtraction, a data window's SIC round
	stageData                  // decodeData
	numStages
)

// mStage holds stage s's choir.stage.<name>_ns histogram: one value per
// call, that call's exclusive time on the lane that ran it.
var mStage = func() (h [numStages]*obs.Histogram) {
	for s, name := range [numStages]string{"other", "dechirp", "fft", "peak_search", "residual_min", "preamble", "sic", "data"} {
		h[s] = obs.NewHistogram("choir.stage." + name + "_ns")
	}
	return h
}()

// clockBase is the origin of nanotime's readings.
var clockBase = time.Now()

// nanotime reads the monotonic clock.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// stageClock charges a lane's time to the stage it is in, so every
// nanosecond a lane works goes to exactly one stage. Each switch reads the
// clock once and charges the time since the last reading to the stage it
// leaves. acc[s] gathers the exclusive time of the call to s in progress (no
// stage runs inside itself), and leaving s records it.
//
// The owner's clock runs from armClock to stopClock, the wait at a fan-out's
// end included. A helper lane's clock runs while the lane runs a window: its
// stages record their own calls, and its time outside them waits in
// acc[stageOther] until fold charges it to the owner's stage.
type stageClock struct {
	on   bool
	cur  stage
	last int64            // nanotime at the last switch
	busy int64            // all time charged since armClock or the last fold
	acc  [numStages]int64 // acc[s]: the exclusive time so far of the call to s in progress
}

// enter makes s the current stage and returns the stage it leaves, for the
// matching exit. With the clock off it is one branch.
func (c *stageClock) enter(s stage) stage {
	if c.on {
		return c.switchTo(s)
	}
	return stageOther
}

// switchTo is enter's clock-on path, kept out of line so that enter inlines.
//
//go:noinline
func (c *stageClock) switchTo(s stage) stage {
	prev := c.cur
	c.charge()
	c.cur, c.acc[s] = s, 0
	return prev
}

// exit records the exclusive time of the stage call enter began and makes
// prev, what enter returned, current again.
func (c *stageClock) exit(prev stage) {
	if c.on {
		c.record(prev)
	}
}

// record is exit's clock-on path.
func (c *stageClock) record(prev stage) {
	c.charge()
	mStage[c.cur].Observe(c.acc[c.cur])
	c.cur = prev
}

// charge charges the time since the last switch to the current stage.
func (c *stageClock) charge() {
	t := nanotime()
	c.acc[c.cur] += t - c.last
	c.busy += t - c.last
	c.last = t
}

// resume starts the clock in stageOther if on, and turns it off otherwise.
func (c *stageClock) resume(on bool) {
	c.on, c.cur = on, stageOther
	if on {
		c.last = nanotime()
	}
}

// armClock starts d's clock for one decode, on when metrics are. A decode
// that panicked mid-fan-out left its lanes' totals unfolded; they restart.
func (d *Decoder) armClock() {
	d.clk.acc[stageOther], d.clk.busy = 0, 0
	d.clk.resume(obs.Enabled())
	if d.clk.on {
		for _, l := range d.lanes {
			l.clk.acc[stageOther], l.clk.busy = 0, 0
		}
	}
}

// stopClock records the decode's time in no other stage as one
// choir.stage.other_ns call, and every lane's busy time.
func (d *Decoder) stopClock() {
	if d.clk.on {
		d.clk.record(stageOther)
		mDecodeBusy.Observe(d.clk.busy)
		d.clk.on = false
	}
}

// fold charges the lanes' time outside any stage in the fan-out just ended
// to the owner's current stage, and adds their busy time to the owner's.
func (d *Decoder) fold() {
	if !d.clk.on {
		return
	}
	for _, l := range d.lanes {
		d.clk.acc[d.clk.cur] += l.clk.acc[stageOther]
		d.clk.busy += l.clk.busy
		l.clk.acc[stageOther], l.clk.busy = 0, 0
	}
}

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
