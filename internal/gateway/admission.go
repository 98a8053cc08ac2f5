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

// admissionEvery is how many terminal outcomes form one latency window
// between AIMD adjustments.
const admissionEvery = 32

// admissionController is the gateway's AIMD overload governor. It moves the
// gateway's one queue limit (Gateway.limit) within [admissionMin, queue
// capacity], and submitFrame sheds a frame offered at that limit by the
// configured Policy exactly as at a full queue. Feedback is the gateway's own end-to-end frame latency: every
// admissionEvery terminal outcomes form one window, and the window's p99
// against Config.AdmissionTarget decides the move — multiplicative decrease
// (halve) when over target, additive increase (plus one) when under. The
// classic AIMD shape converges onto the deepest queue the decode pool
// drains within the latency target and probes gently upward as load
// recedes.
//
// The controller tracks latencies itself rather than reading the
// gateway.frame_latency_ns histogram back: the obs layer's contract is that
// metrics only observe (disabling them must never change behavior), so a
// control loop may share a data source with a metric but never the metric.
type admissionController struct {
	target int64         // p99 target, nanoseconds
	every  int           // outcomes per evaluation window
	max    int64         // window ceiling (the queue capacity)
	limit  *atomic.Int64 // the gateway's queue limit, which this controller moves

	mu  sync.Mutex
	lat []int64 // latencies accumulated toward the next evaluation
}

// newAdmissionController takes over limit, which starts wide open at the
// queue capacity: the controller only narrows on evidence of overload.
func newAdmissionController(target time.Duration, limit *atomic.Int64) *admissionController {
	a := &admissionController{
		target: target.Nanoseconds(),
		every:  admissionEvery,
		max:    limit.Load(),
		limit:  limit,
	}
	mAdmissionLimit.Set(a.max)
	return a
}

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
		mAdmissionLimit.Set(next)
	}
}
