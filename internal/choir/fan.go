package choir

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file shares a decode's per-window loops across cores. Four loops read
// nothing another window of the same loop writes: the preamble's per-window
// offset refinement and its SIC subtraction, and the data windows' peak
// extraction and ML symbol pass. forEachWindow hands their windows to the
// decoding goroutine and to helper goroutines, each helper on a lane — a
// *Decoder built by newDecoder over its owner's plans, owning only scratch.
// Everything else in a decode stays serial: the spectral grids, the IC sweeps
// (each window reads its neighbours' symbols), the boundary estimate and the
// candidate vote.
//
// The rules a fan-out keeps:
//
//   - Each window writes only its own result slot, so a decode is
//     bit-identical for any number of lanes (TestLaneCountEquivalence).
//   - Helpers = min(GOMAXPROCS, windows) − 1. On one core the loop runs on
//     the decoding goroutine alone: the same code, one participant.
//   - Only the decoding goroutine polls the decode's context (contexts need
//     not be safe for concurrent polls); helpers read the stop flag it sets.
//   - Helpers start per fan-out and exit when the windows run out, so no
//     goroutine outlives its fan-out (TestCancelMidFanOut).
//   - A fan-out allocates nothing once its lanes exist: its state lives in
//     the owner, and a helper is an argument-free go statement that receives
//     its owner over laneStarts (a go statement with arguments allocates
//     its closure) (TestFanOutSteadyStateZeroAllocs).
//   - A panic in any window stops the handout; once every participant has
//     returned, the first panic value is raised again on the decoding
//     goroutine (TestFanOutPanicReachesCaller).
//
// The fan-out is the decoder's own rather than exec.Pool.ForEach: ForEach
// allocates its closures and goroutines per call, polls its context from
// every worker, and has no notion of a lane.

// windowTask names the per-window body a fan-out runs.
type windowTask uint8

const (
	refineTask   windowTask = iota // refineWindow: one preamble window's offsets and channels
	subtractTask                   // subtractUsers: one preamble window's SIC subtraction
	peaksTask                      // extractWindowPeaks: one data window's peaks
	symbolsTask                    // mlSymbolPass: one data window's ML symbols
)

// windowJob is one fan-out's task and inputs. Window i of the job is wins[i],
// and its slots are peaks[i] (the peaks task's output, the symbols task's
// input) and index i of each estimate's perWin and gainWin (the refine
// task's output). The peaks task reads window i's round-0 spectrum from the
// owner's grid, which holds exactly the job's windows.
type windowJob struct {
	task   windowTask
	wins   [][]complex128
	coarse []float64
	ests   []userEstimate
	peaks  [][]peakObs
	users  []*User
}

// fanout is the state of a decoder's fan-out in flight.
type fanout struct {
	job   windowJob
	next  atomic.Int64 // the next window to hand out
	lane  atomic.Int32 // the next lane a helper takes
	stop  atomic.Bool  // set on cancellation or panic: hand out no more windows
	wg    sync.WaitGroup
	mu    sync.Mutex
	fault any // the first panic value a window raised, guarded by mu
}

// laneStarts hands each helper goroutine the decoder whose fan-out it joins;
// a helper may take another decoder's send than the one after its own go
// statement, and still every send has a helper. The buffer lets the owner
// go on to its own windows instead of waiting until a new helper is
// scheduled. 64 holds every send in flight unless more than 64 helpers
// are starting at once, and then an owner waits for one already started.
var laneStarts = make(chan *Decoder, 64)

// windowHook, when non-nil, runs before every window a fan-out hands out,
// with the task, the window and whether a helper runs it. It is nil outside
// tests, which set it (export_test.go) to inject a panic or a cancellation
// into a fan-out.
var windowHook func(task windowTask, i int, helper bool)

// forEachWindow runs job for every window of job.wins across the decoding
// goroutine and its helpers, returns once all of them have finished, and
// reports whether the decode's context fired. A canceled fan-out leaves
// unspecified which windows ran.
func (d *Decoder) forEachWindow(job windowJob) (canceled bool) {
	f := &d.fan
	f.job = job
	f.next.Store(0)
	f.lane.Store(0)
	f.stop.Store(false)
	helpers := min(runtime.GOMAXPROCS(0), len(job.wins)) - 1
	for len(d.lanes) < helpers {
		d.lanes = append(d.lanes, newDecoder(d.plans))
	}
	if helpers > 0 {
		f.wg.Add(helpers)
		for range helpers {
			go laneHelper()
			laneStarts <- d
		}
	}
	d.work(d)
	f.wg.Wait()
	f.job = windowJob{}
	if fault := f.fault; fault != nil {
		f.fault = nil
		panic(fault)
	}
	return d.ctxErr != nil
}

// laneHelper is one helper of a fan-out: it takes the next free lane of the
// decoder it receives and works until the windows run out.
func laneHelper() {
	d := <-laneStarts
	defer d.fan.wg.Done()
	d.work(d.lanes[d.fan.lane.Add(1)-1])
}

// work runs windows of d's fan-out on lane until none is left, the stop flag
// is set or a window panics; a panic is recorded for forEachWindow to raise
// and stops the handout. The owner (lane == d) polls the decode's context
// before each window it takes.
func (d *Decoder) work(lane *Decoder) {
	f := &d.fan
	defer func() {
		if r := recover(); r != nil {
			f.stop.Store(true)
			f.mu.Lock()
			if f.fault == nil {
				f.fault = r
			}
			f.mu.Unlock()
		}
	}()
	for !f.stop.Load() {
		i := int(f.next.Add(1)) - 1
		if i >= len(f.job.wins) {
			return
		}
		if lane == d && d.canceled() {
			f.stop.Store(true)
			return
		}
		d.runWindow(lane, i)
	}
}

// runWindow runs window i of d's fan-out on lane.
func (d *Decoder) runWindow(lane *Decoder, i int) {
	j := &d.fan.job
	if windowHook != nil {
		windowHook(j.task, i, lane != d)
	}
	switch j.task {
	case refineTask:
		lane.refineWindow(i, j.wins[i], j.coarse, j.ests)
	case subtractTask:
		lane.subtractUsers(j.wins[i], j.ests)
	case peaksTask:
		j.peaks[i] = lane.extractWindowPeaks(j.peaks[i], j.ests, j.wins[i], d.grid.Spec(i), d.grid.Mags(i))
	case symbolsTask:
		lane.mlSymbolPass(j.wins[i], i, j.peaks[i], j.users)
	}
}
