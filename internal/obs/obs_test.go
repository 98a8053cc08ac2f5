package obs

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"sync"
	"testing"
	"time"
)

// withEnabled runs fn with recording on, restoring the previous state.
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	was := Enabled()
	Enable()
	defer func() {
		if !was {
			Disable()
		}
	}()
	fn()
}

func TestCounterGating(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.counter")
	Disable()
	c.Inc()
	c.Add(10)
	if got := c.Value(); got != 0 {
		t.Errorf("disabled counter recorded %d, want 0", got)
	}
	withEnabled(t, func() {
		c.Inc()
		c.Add(10)
	})
	if got := c.Value(); got != 11 {
		t.Errorf("enabled counter = %d, want 11", got)
	}
	if r.Counter("test.counter") != c {
		t.Error("re-registering a name returned a different counter")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := newHistogram()
	withEnabled(t, func() {
		for _, v := range []int64{1, 2, 3, 100, 1000} {
			h.Observe(v)
		}
	})
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 1106 {
		t.Errorf("sum = %d, want 1106", h.Sum())
	}
	if min := h.min.Load(); min != 1 {
		t.Errorf("min = %d, want 1", min)
	}
	if max := h.max.Load(); max != 1000 {
		t.Errorf("max = %d, want 1000", max)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 = %g, want clamp to min 1", q)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("q1 = %g, want clamp to max 1000", q)
	}
}

// TestHistogramQuantilesMonotone is the property test: for arbitrary value
// sets, Quantile must be non-decreasing in q and stay inside the observed
// range — the invariants any quantile sketch owes its readers, regardless
// of bucketing error.
func TestHistogramQuantilesMonotone(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x9417))
		h := newHistogram()
		n := 1 + rng.IntN(500)
		minV, maxV := int64(1<<62), int64(0)
		withEnabled(t, func() {
			for i := 0; i < n; i++ {
				// Mix magnitudes so multiple buckets populate.
				v := int64(rng.IntN(1 << uint(1+rng.IntN(40))))
				h.Observe(v)
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
		})
		prev := -1.0
		for q := 0.0; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: Quantile(%g) = %g < Quantile(prev) = %g — not monotone", trial, q, v, prev)
			}
			if v < float64(minV) || v > float64(maxV) {
				t.Fatalf("trial %d: Quantile(%g) = %g outside observed [%d, %d]", trial, q, v, minV, maxV)
			}
			prev = v
		}
	}
}

func TestHistogramConcurrentMinMax(t *testing.T) {
	h := newHistogram()
	withEnabled(t, func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 1; i <= 1000; i++ {
					h.Observe(int64(g*1000 + i))
				}
			}(g)
		}
		wg.Wait()
	})
	if got := h.min.Load(); got != 1 {
		t.Errorf("concurrent min = %d, want 1", got)
	}
	if got := h.max.Load(); got != 8000 {
		t.Errorf("concurrent max = %d, want 8000", got)
	}
	if got := h.Count(); got != 8000 {
		t.Errorf("concurrent count = %d, want 8000", got)
	}
}

func TestTimerSpan(t *testing.T) {
	r := NewRegistry()
	tm := r.Timer("test.timer_ns")
	Disable()
	sp := tm.Start()
	sp.Stop()
	if got := tm.Hist().Count(); got != 0 {
		t.Errorf("disabled timer recorded %d spans, want 0", got)
	}
	withEnabled(t, func() {
		sp := tm.Start()
		time.Sleep(time.Millisecond)
		sp.Stop()
	})
	if got := tm.Hist().Count(); got != 1 {
		t.Fatalf("timer recorded %d spans, want 1", got)
	}
	if tm.Hist().Sum() < int64(time.Millisecond) {
		t.Errorf("recorded %d ns for a 1 ms sleep", tm.Hist().Sum())
	}
}

// TestDisabledPathAllocationFree pins the "allocation-free when disabled"
// half of the package contract at the operation level; the end-to-end
// version against the real decoder is BenchmarkDecodeMetricsOnVsOff.
func TestDisabledPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.allocs.counter")
	h := r.Histogram("test.allocs.hist")
	tm := r.Timer("test.allocs.timer_ns")
	Disable()
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(42)
		sp := tm.Start()
		sp.Stop()
	}); n != 0 {
		t.Errorf("disabled metric ops allocate %g allocs/op, want 0", n)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	h := r.Histogram("a.hist")
	withEnabled(t, func() {
		c.Add(7)
		h.Observe(16)
	})
	snap := r.TakeSnapshot()
	if snap.Counters["a.count"] != 7 {
		t.Errorf("snapshot counter = %d, want 7", snap.Counters["a.count"])
	}
	hs := snap.Histograms["a.hist"]
	if hs.Count != 1 || hs.Min != 16 || hs.Max != 16 {
		t.Errorf("snapshot hist = %+v, want count 1 min/max 16", hs)
	}
	r.Reset()
	snap = r.TakeSnapshot()
	if snap.Counters["a.count"] != 0 || snap.Histograms["a.hist"].Count != 0 {
		t.Error("Reset did not zero metrics")
	}
	if snap.Histograms["a.hist"].Min != 0 {
		t.Error("empty histogram snapshot should report min 0")
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	withEnabled(t, func() {
		r.Counter("z.last").Inc()
		r.Counter("a.first").Add(2)
		r.Histogram("m.mid").Observe(5)
	})
	var a, b bytes.Buffer
	if err := r.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two snapshots of unchanged state serialized differently")
	}
	var snap Snapshot
	if err := json.Unmarshal(a.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["a.first"] != 2 {
		t.Errorf("round-tripped counter = %d, want 2", snap.Counters["a.first"])
	}
}
