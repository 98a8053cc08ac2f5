package choir

// This file shares a decode's per-window loops across cores. Five loops read
// nothing another window of the same loop writes: the preamble's per-window
// peak scan, its offset refinement and its SIC subtraction, and the data
// windows' peak extraction and ML symbol pass. forEachWindow runs their
// windows on the decoder's exec.Fan: the decoding goroutine is participant 0
// and runs on the decoder itself, and helper p runs on lane p − 1 — a
// *Decoder built by newDecoder over its owner's plans, owning only scratch.
// A window's padded spectrum is computed on the lane that reads it. Everything
// else in a decode stays serial: the dechirp, the candidate vote and its
// grouping, the IC sweeps (each window reads its neighbours' symbols) and the
// boundary estimate.
//
// Each window writes only its own result slot, so a decode is bit-identical
// for any number of lanes (TestLaneCountEquivalence). exec.Fan keeps the
// other rules: only the decoding goroutine polls the decode's context, no
// helper outlives its fan-out (TestCancelMidFanOut), a warm fan-out allocates
// nothing (TestFanOutSteadyStateZeroAllocs), and a panic in any window is
// raised again on the decoding goroutine (TestFanOutPanicReachesCaller).
// A helper lane's stage clock runs while it runs a window, and the owner
// folds the lanes' time into its own stage when the fan-out ends
// (metrics.go).

// windowTask names the per-window body a fan-out runs.
type windowTask uint8

const (
	refineTask   windowTask = iota // refineWindow: one preamble window's offsets and channels
	subtractTask                   // subtractUsers: one preamble window's SIC subtraction
	peaksTask                      // extractWindowPeaks: one data window's peaks
	symbolsTask                    // mlSymbolPass: one data window's ML symbols
	scanTask                       // scanWindow: one preamble window's new-user peaks
)

// windowJob is one fan-out's task and inputs, and the exec.Job the decoder's
// Fan runs. Window i of the job is wins[i], and its slots are obs[i] (the scan
// task's output), peaks[i] (the peaks task's output, the symbols task's
// input) and index i of each estimate's perWin and gainWin (the refine task's
// output).
type windowJob struct {
	d      *Decoder // the owner
	task   windowTask
	wins   [][]complex128
	coarse []float64
	ests   []userEstimate
	obs    [][]binObs
	peaks  [][]peakObs
	users  []*User
}

// windowHook, when non-nil, runs before every window a fan-out hands out,
// with the task, the window and whether a helper runs it. It is nil outside
// tests, which set it (export_test.go) to inject a panic or a cancellation
// into a fan-out.
var windowHook func(task windowTask, i int, helper bool)

// forEachWindow runs job for every window of job.wins on the decoder's Fan
// and reports whether the decode's context fired. A canceled fan-out leaves
// unspecified which windows ran.
func (d *Decoder) forEachWindow(job windowJob) (canceled bool) {
	job.d = d
	d.job = job
	canceled = d.fan.Run(&d.job, len(job.wins))
	d.fold()
	d.job = windowJob{}
	return canceled
}

// Start builds the lanes a fan-out of w participants needs; the owner keeps
// them for later decodes.
func (j *windowJob) Start(w int) {
	for len(j.d.lanes) < w-1 {
		j.d.lanes = append(j.d.lanes, newDecoder(j.d.plans))
	}
}

// Stop polls the decode's context.
func (j *windowJob) Stop() bool { return j.d.canceled() }

// Run runs window i on participant p's decoder.
func (j *windowJob) Run(p, i int) {
	lane := j.d
	if p > 0 {
		lane = j.d.lanes[p-1]
		lane.clk.resume(j.d.clk.on)
		if lane.clk.on {
			defer lane.clk.charge()
		}
	}
	if windowHook != nil {
		windowHook(j.task, i, p > 0)
	}
	switch j.task {
	case refineTask:
		lane.refineWindow(i, j.wins[i], j.coarse, j.ests)
	case subtractTask:
		lane.subtractUsers(j.wins[i], j.ests)
	case peaksTask:
		j.peaks[i] = lane.extractWindowPeaks(j.peaks[i], j.ests, j.wins[i])
	case symbolsTask:
		lane.mlSymbolPass(j.wins[i], i, j.peaks[i], j.users)
	case scanTask:
		j.obs[i] = lane.scanWindow(j.obs[i][:0], j.wins[i], j.ests)
	}
}
