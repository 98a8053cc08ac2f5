package main

import (
	"io"
	"reflect"
	"testing"
	"time"
)

// testScale shrinks every workload to a twentieth: results are marked
// non-comparable, but every code path runs.
const testScale = 0.05

func TestScheduleAndOrderFollowTheSeed(t *testing.T) {
	usable := (&framePool{cells: 12, variants: 2, frames: make([]frame, 24)}).all()
	order := func(seed uint64) []int { return newFrameOrder(seed, usable).take(60) }
	if a, b := order(7), order(7); !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different frame order:\n%v\n%v", a, b)
	}
	if a, b := order(7), order(8); reflect.DeepEqual(a, b) {
		t.Errorf("seeds 7 and 8 give the same frame order %v", a)
	}
	a := arrivalSchedule(7, 80, 5*time.Second)
	if b := arrivalSchedule(7, 80, 5*time.Second); !reflect.DeepEqual(a, b) {
		t.Error("same seed, different arrival schedule")
	}
	if b := arrivalSchedule(8, 80, 5*time.Second); reflect.DeepEqual(a, b) {
		t.Error("seeds 7 and 8 give the same arrival schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 5*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the span", i, a[i])
		}
	}
}

func TestFrameOrderPassesAreBalanced(t *testing.T) {
	usable := [][]int{{0, 1}, {2}, {4, 5}} // cell 1 lost a rendering to vetting
	order := newFrameOrder(3, usable)
	for p := 0; p < 4; p++ {
		cells := map[int]bool{}
		for _, fi := range order.pass() {
			cells[fi/2] = true
			if fi == 3 {
				t.Fatalf("pass %d uses frame 3, which is not usable", p)
			}
		}
		if len(cells) != 3 {
			t.Errorf("pass %d visits cells %v, want each of 3 once", p, cells)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{19, 0}, {20, 50}, {96, 89}, {100, 90}, {240, 95}, {640, 98}, {1000, 99}, {100000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*float64(100-p)/100 < 10 {
			t.Errorf("n=%d: p%d leaves fewer than ten samples beyond", c.n, p)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
}

func TestMatchPayloads(t *testing.T) {
	truth := [][]byte{{1, 2, 3, 4}, {5, 6, 7, 8}}
	if r, f := matchPayloads([][]byte{{5, 6, 7, 8}, {1, 2, 3, 4}}, truth); r != 2 || f != 0 {
		t.Errorf("both recovered: got %d recovered, %d false", r, f)
	}
	if r, f := matchPayloads([][]byte{{1, 2, 3, 4}, {1, 2, 3, 4}}, truth); r != 1 || f != 0 {
		t.Errorf("a repeat is neither recovered twice nor false: got %d, %d", r, f)
	}
	if r, f := matchPayloads([][]byte{{1, 2, 3, 4}, {5, 6, 7, 9}}, truth); r != 1 || f != 1 {
		t.Errorf("one flipped byte: got %d recovered, %d false, want 1, 1", r, f)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "b", Parent: 0, StartNS: 30, EndNS: 60},   // overlaps a: counted once
		{Name: "c", Parent: 0, StartNS: 90, EndNS: 120},  // sticks out: clipped to the parent
		{Name: "a1", Parent: 1, StartNS: 10, EndNS: 25},  // grandchild only shrinks a
		{Name: "lost", Parent: 9, StartNS: 0, EndNS: 50}, // unknown parent: a root
	}
	want := []int64{100 - 50 - 10, 30 - 15, 30, 30, 15, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var rec *recorder // untraced: every call is a no-op
	if i := rec.open("x", "y", 0, -1, time.Now()); i != -1 {
		t.Errorf("nil recorder returned span %d", i)
	}
	rec.finish(-1, time.Now())
}

// smoke runs one workload at testScale and checks the result's shape.
func smoke(t *testing.T, name string, traced bool) result {
	t.Helper()
	res, err := runOne(name, 11, defaultSeconds, testScale, traced, t.TempDir(), io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("%s: metric %s missing or in %q, want %q", name, d.Name, v.Unit, d.Unit)
		}
		if !traced && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, v.Value)
		}
	}
	if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted/4 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.Name == "gw_heavy_closed" {
			continue // a minute under -race
		}
		smoke(t, w.Name, false)
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke of two workloads takes a few seconds")
	}
	gw := smoke(t, "gw_light_closed", true)
	for _, name := range []string{"trace.decode_us_per_frame", "journal.append_us_per_frame", "gateway.admit_us_per_frame",
		"choir.stage.fft_calls_per_frame", "backend.choir.decode_ms_per_frame", "dsp.fft_pruned_us.n2048"} {
		if gw.Metrics[name].Value <= 0 {
			t.Errorf("gw_light_closed traced: %s = %v, want > 0", name, gw.Metrics[name].Value)
		}
	}
	if v := gw.Metrics["engine.events"].Value; v != 0 {
		t.Errorf("gw_light_closed bypasses the engine, yet engine.events = %v", v)
	}
	city := smoke(t, "city_dense", true)
	for _, name := range []string{"engine.events", "engine.ns_per_event", "engine.foreign_tx", "interfere.per_tx_prob_ns"} {
		if city.Metrics[name].Value <= 0 {
			t.Errorf("city_dense traced: %s = %v, want > 0", name, city.Metrics[name].Value)
		}
	}
}

// A flipped payload byte must lower delivery_ratio and fail the run: the
// decoder still reports a CRC-clean payload, but it is nothing that was sent.
func TestFlippedPayloadFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("two heavy segments")
	}
	rc := &runCtx{workload: "gw_heavy_closed", seed: 11, seconds: 0.3, scale: testScale, outDir: t.TempDir(), log: io.Discard}
	spec := gwSpecs["gw_heavy_closed"]
	clean, err := runSegment(rc, spec, rc.budget(1), nil)
	if err != nil || len(rc.problems) > 0 {
		t.Fatalf("clean segment: err=%v problems=%v", err, rc.problems)
	}
	e, _, err := startGateway(rc, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range e.pool.frames {
		e.pool.frames[i].payloads[0][0] ^= 0xFF // the first user's first byte
	}
	bad := e.measure(rc, rc.budget(1))
	ct, bt := tallyOf(clean.recs), tallyOf(bad.recs)
	cr, br := float64(ct.recovered)/float64(ct.sent), float64(bt.recovered)/float64(bt.sent)
	if br >= cr {
		t.Errorf("payload recovery %.3f against the flipped truth, %.3f against the real one", br, cr)
	}
	if len(rc.problems) == 0 {
		t.Error("a payload matching nothing transmitted did not fail the run")
	}
}

func TestCityInvariantChecks(t *testing.T) {
	rc := &runCtx{workload: "city_dense", seed: 11, seconds: 0.2, scale: testScale, outDir: t.TempDir(), log: io.Discard}
	cfg := cityConfig("city_dense", 11, testScale)
	rep, err := runCityRep(rc, cfg, nil, 0)
	if err != nil || len(rc.problems) > 0 {
		t.Fatalf("clean run: err=%v problems=%v", err, rc.problems)
	}
	if _, err := checkDrivers(rc, cfg); err != nil || len(rc.problems) > 0 {
		t.Fatalf("event and slot drivers: err=%v problems=%v", err, rc.problems)
	}
	m := *rep.m
	m.LatencyHist[0]++
	m.PerSFTx[2]--
	m.Delivered = m.Transmissions + 1
	if bad := checkCityMetrics(&m); len(bad) < 3 {
		t.Errorf("three broken invariants, %d reported: %v", len(bad), bad)
	}
	if digest(&m) == digest(rep.m) {
		t.Error("digest did not notice changed metrics")
	}
}

func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, err := findBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	var e2e []metricDef
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.metricDef)
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup || !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the program's table:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's table")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 {
			t.Errorf("metric %q (%q) is repeated or too long", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}
