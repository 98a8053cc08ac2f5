// Package obs is the repository's zero-dependency observability layer:
// atomic counters and gauges, power-of-two latency/value histograms, and
// named stage timers, snapshottable to deterministic JSON. The hot paths of the decode
// pipeline (package internal/choir), the trial-execution engine (package
// internal/exec), the experiment harness (package internal/sim), the MAC
// simulator and the fault injectors all record into it.
//
// The layer is built around two invariants:
//
//   - Deterministic-safe: metrics only observe. No instrumented code path
//     reads a metric to make a decision, and no metric touches a random
//     stream, so enabling or disabling metrics can never change decode
//     results or seed derivation.
//
//   - Allocation-free when disabled: every recording operation starts with
//     one atomic load of the global enable flag and returns immediately when
//     metrics are off. Counter.Add, Histogram.Observe, Timer.Start and
//     Span.Stop allocate nothing in either state (spans are stack values);
//     BenchmarkDecodeMetricsOnVsOff in the repository root pins the
//     0 allocs/op claim against the real decoder.
//
// Metrics register themselves in a package-global registry at first use
// (package init of the instrumented packages), so a snapshot sees every
// metric the process can produce, including ones never incremented.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global switch. All recording operations are gated on it;
// reads (Value, Snapshot) are not, so a just-disabled process can still dump
// what it gathered.
var enabled atomic.Bool

// Enable turns metric recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns metric recording off process-wide.
func Disable() { enabled.Store(false) }

// Enabled reports whether metrics are being recorded.
func Enabled() bool { return enabled.Load() }

// Counter is a monotonically increasing atomic counter. The zero value is
// usable but unnamed; NewCounter returns a registered one.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if !enabled.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n (n may be any sign; counters conventionally only grow).
func (c *Counter) Add(n int64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// reset zeroes the counter.
func (c *Counter) reset() { c.v.Store(0) }

// Gauge holds a level — the last value set, such as a live limit — where a
// Counter holds a running total. NewGauge returns a registered one.
type Gauge struct {
	v atomic.Int64
}

// Set makes v the gauge's value.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Value returns the last value set.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of histogram buckets: bucket 0 holds values
// <= 0, bucket i (1..64) holds values in [2^(i-1), 2^i - 1].
const histBuckets = 65

// Histogram accumulates an integer-valued distribution (nanoseconds, counts,
// sizes) in power-of-two buckets. All methods are safe for concurrent use;
// recording is lock-free. Create histograms through a Registry (or
// NewHistogram), which seeds the min/max sentinels; the zero value tracks
// buckets correctly but reports min/max of 0.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	sum    atomic.Int64
	n      atomic.Int64
	min    atomic.Int64 // math.MaxInt64 until the first observation
	max    atomic.Int64 // math.MinInt64 until the first observation
}

// newHistogram returns a histogram with min/max sentinels seeded.
func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.observe(v)
}

// observe records unconditionally (used by Span.Stop, which gated on the
// enable flag when the span started).
func (h *Histogram) observe(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
	for {
		cur := h.min.Load()
		if v >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur {
			break
		}
		if h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns how many values were recorded.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the total of all recorded values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the average recorded value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing power-of-two bucket. Estimates are monotone in q and
// clamped to the observed [min, max] range. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	lo, hi := float64(h.min.Load()), float64(h.max.Load())
	rank := q * float64(n) // fractional rank in [0, n]
	var cum int64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			// Interpolate within bucket i between its bounds.
			bLo, bHi := bucketBounds(i)
			frac := (rank - float64(cum)) / float64(c)
			v := bLo + frac*(bHi-bLo)
			// Clamp to the observed range: the outer buckets are much
			// wider than the data they hold.
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return v
		}
		cum += c
	}
	return hi
}

// bucketBounds returns bucket i's value range as floats.
func bucketBounds(i int) (float64, float64) {
	if i == 0 {
		return 0, 0
	}
	lo := math.Exp2(float64(i - 1))
	hi := math.Exp2(float64(i))
	return lo, hi
}

// reset zeroes the histogram and restores the min/max sentinels.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.n.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// Timer measures durations into a histogram of nanoseconds.
type Timer struct {
	h *Histogram
}

// Hist returns the underlying nanosecond histogram.
func (t *Timer) Hist() *Histogram { return t.h }

// Span is an in-flight timing started by Timer.Start. The zero Span (from a
// disabled timer) is inert: Stop on it does nothing.
type Span struct {
	t     *Timer
	start time.Time
}

// Start begins timing. When metrics are disabled it returns the zero Span,
// costing one atomic load and no allocation.
func (t *Timer) Start() Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{t: t, start: time.Now()}
}

// Stop records the elapsed time since Start. Safe on the zero Span.
func (s Span) Stop() {
	if s.t == nil {
		return
	}
	s.t.h.observe(time.Since(s.start).Nanoseconds())
}

// Registry holds named metrics. Names are conventionally dotted paths
// ("choir.stage.fft_ns"); a _ns suffix marks nanosecond timer histograms.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// std is the process-wide registry the package-level constructors use.
var std = NewRegistry()

// Counter returns the named counter, creating and registering it on first
// use. Repeated calls with one name return the same counter.
func (r *Registry) Counter(name string) *Counter {
	return lookup(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lookup(r, r.hists, name, newHistogram)
}

// lookup returns m's metric under name, registering a fresh one on first
// use.
func lookup[M any](r *Registry, m map[string]*M, name string, fresh func() *M) *M {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v := fresh()
	m[name] = v
	return v
}

// Timer returns a timer over the named histogram.
func (r *Registry) Timer(name string) *Timer {
	return &Timer{h: r.Histogram(name)}
}

// NewCounter registers a counter in the process-wide registry.
func NewCounter(name string) *Counter { return std.Counter(name) }

// NewGauge registers a gauge in the process-wide registry.
func NewGauge(name string) *Gauge { return std.Gauge(name) }

// NewHistogram registers a histogram in the process-wide registry.
func NewHistogram(name string) *Histogram { return std.Histogram(name) }

// NewTimer registers a nanosecond timer in the process-wide registry. By
// convention its name ends in "_ns".
func NewTimer(name string) *Timer { return std.Timer(name) }

// Reset zeroes every metric in the process-wide registry (registrations are
// kept). Tests use it to isolate assertions.
func Reset() { std.Reset() }

// Reset zeroes every metric in the registry.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// HistSnapshot is one histogram's state in a snapshot.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of a registry, JSON-marshalable with
// deterministic (sorted) key order.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// TakeSnapshot copies the registry's current state.
func (r *Registry) TakeSnapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
		if hs.Count > 0 {
			hs.Min = h.min.Load()
			hs.Max = h.max.Load()
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// TakeSnapshot copies the process-wide registry's current state.
func TakeSnapshot() Snapshot { return std.TakeSnapshot() }

// WriteJSON writes the registry snapshot as indented JSON with sorted keys.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.TakeSnapshot(), "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling snapshot: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteJSON writes the process-wide registry snapshot as indented JSON.
func WriteJSON(w io.Writer) error { return std.WriteJSON(w) }
