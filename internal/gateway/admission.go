package gateway

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// admissionMin is the floor the admission window can shrink to: overload
// never chokes admissions off entirely.
const admissionMin = 1

// admissionController is the gateway's AIMD overload governor. It layers on
// top of the existing shed policies rather than replacing them: the
// controller maintains an effective admission window — the most accepted
// frames allowed in flight — and submitFrame treats a frame beyond the
// window exactly like a full queue (reject, drop-oldest, or block per
// Config.Policy). Feedback is the gateway's own end-to-end frame latency:
// every Config.AdmissionEvery terminal outcomes form one window, and the
// window's p99 against Config.AdmissionTarget decides the move —
// multiplicative decrease (halve) when over target, additive increase
// (plus one) when under. The classic AIMD shape converges onto the largest
// in-flight load the decode pool sustains within the latency target and
// probes gently upward as load recedes.
//
// The controller tracks latencies itself rather than reading the
// gateway.frame_latency_ns histogram back: the obs layer's contract is that
// metrics only observe (disabling them must never change behavior), so a
// control loop may share a data source with a metric but never the metric.
type admissionController struct {
	target int64 // p99 target, nanoseconds
	every  int   // outcomes per evaluation window
	max    int64 // window ceiling (the queue capacity)

	limit atomic.Int64 // current admission window

	mu  sync.Mutex
	lat []int64 // latencies accumulated toward the next evaluation
}

// newAdmissionController starts with the window wide open (max): the
// controller only narrows on evidence of overload.
func newAdmissionController(target time.Duration, every, max int) *admissionController {
	a := &admissionController{
		target: target.Nanoseconds(),
		every:  every,
		max:    int64(max),
		lat:    make([]int64, 0, every),
	}
	a.limit.Store(a.max)
	mAdmissionLimit.Add(a.max) // gauge-by-delta: value tracks the window
	return a
}

// Limit returns the current admission window.
func (a *admissionController) Limit() int64 { return a.limit.Load() }

// observe feeds one frame's end-to-end latency and, at each window
// boundary, applies the AIMD step.
func (a *admissionController) observe(latNs int64) {
	a.mu.Lock()
	a.lat = append(a.lat, latNs)
	if len(a.lat) < a.every {
		a.mu.Unlock()
		return
	}
	window := make([]int64, len(a.lat))
	copy(window, a.lat)
	a.lat = a.lat[:0]
	a.mu.Unlock()

	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	p99 := window[(len(window)*99)/100]
	old := a.limit.Load()
	next := old
	if p99 > a.target {
		next = old / 2
		if next < admissionMin {
			next = admissionMin
		}
		if next != old {
			mAdmissionShrinks.Inc()
		}
	} else {
		next = old + 1
		if next > a.max {
			next = a.max
		}
		if next != old {
			mAdmissionGrows.Inc()
		}
	}
	if next != old {
		a.limit.Store(next)
		mAdmissionLimit.Add(next - old)
	}
}
