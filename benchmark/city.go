package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"time"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/obs"
	"choir/internal/sim"
	"choir/internal/sim/engine"
	"choir/internal/sim/interfere"
)

// onTimeSlots is the city workloads' deadline: a packet delivered fewer than
// this many slots after it arrived at its node counts as on time. It is a
// LatencyHist bucket edge (2^4), so the count is exact.
const onTimeSlots = 16

// cityReceiver is the per-(gateway, SF) slot PHY both city workloads share.
func cityReceiver() mac.ModelReceiver {
	return mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30}
}

// cityConfig builds one repetition's engine configuration. A repetition is
// sized to take a few seconds on the 2-core box this was written on, so a
// run holds several and reports their median.
func cityConfig(workload string, seed uint64, scale float64) engine.Config {
	cfg := engine.Config{
		Scheme: mac.SchemeChoir, Driver: engine.DriverEvent,
		Seed: exec.DeriveSeed(seed, dimCity), Shards: 8, Workers: 2,
	}
	n := func(full int) int { return max(1, int(float64(full)*scale+0.5)) }
	if workload == "city_sparse" {
		cfg.Nodes, cfg.Gateways, cfg.Slots, cfg.ArrivalPerSlot = n(1_000_000), 16, n(50_000), 2e-5
		cfg.Receiver = cityReceiver()
	} else {
		cfg.Nodes, cfg.Gateways, cfg.Slots, cfg.ArrivalPerSlot = n(50_000), 4, n(40_000), 1e-3
		cfg.Foreign = []engine.ForeignConfig{{Nodes: n(20_000), ArrivalPerSlot: 1e-3}}
		cfg.Receiver = interfere.New(cityReceiver(), 6)
	}
	return cfg
}

// digest folds every field of the metrics into one number, so a change that
// only claims speed can be shown to leave each simulated statistic alone.
func digest(m *engine.Metrics) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", *m)
	return h.Sum64()
}

// checkCityMetrics returns the invariants one run's metrics break.
func checkCityMetrics(m *engine.Metrics) []string {
	var bad []string
	if m.Delivered > m.Transmissions {
		bad = append(bad, fmt.Sprintf("delivered %d > transmissions %d", m.Delivered, m.Transmissions))
	}
	var tx, del, hist int64
	for i := range m.PerSFTx {
		tx += m.PerSFTx[i]
		del += m.PerSFDelivered[i]
	}
	for _, c := range m.LatencyHist {
		hist += c
	}
	if tx != m.Transmissions {
		bad = append(bad, fmt.Sprintf("per-SF transmissions sum to %d, total %d", tx, m.Transmissions))
	}
	if del != m.Delivered {
		bad = append(bad, fmt.Sprintf("per-SF deliveries sum to %d, total %d", del, m.Delivered))
	}
	if hist != m.Delivered {
		bad = append(bad, fmt.Sprintf("latency histogram sums to %d, delivered %d", hist, m.Delivered))
	}
	return bad
}

// slotCheckConfig shortens cfg to a horizon the O(nodes × slots) reference
// driver can walk in about a second.
func slotCheckConfig(cfg engine.Config) engine.Config {
	cfg.Slots = max(1, min(cfg.Slots/10, 200_000_000/cfg.Nodes))
	return cfg
}

// checkDrivers runs the event and the slot driver at the reduced horizon and
// reports whether their metrics are identical; it also returns the slot
// driver's host time per event.
func checkDrivers(rc *runCtx, cfg engine.Config) (nsPerEvent float64, err error) {
	cfg = slotCheckConfig(cfg)
	ev, err := engine.Run(context.Background(), cfg)
	if err != nil {
		return 0, err
	}
	cfg.Driver = engine.DriverSlot
	start := time.Now()
	sl, err := engine.Run(context.Background(), cfg)
	if err != nil {
		return 0, err
	}
	el := time.Since(start)
	if !reflect.DeepEqual(ev, sl) {
		rc.problem("event and slot drivers disagree at %d slots: %x vs %x", cfg.Slots, digest(ev), digest(sl))
	}
	return float64(el.Nanoseconds()) / float64(max(sl.Events, 1)), nil
}

// cityRep is one timed engine.Run.
type cityRep struct {
	m         *engine.Metrics
	speed     float64 // boxSpeed around the run
	wall, cpu time.Duration
	mem       runtime.MemStats // deltas: Mallocs, TotalAlloc, PauseTotalNs
}

func runCityRep(rc *runCtx, cfg engine.Config, rec *recorder, id int64) (*cityRep, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start := cpuTime(), time.Now()
	m, err := engine.Run(context.Background(), cfg)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	rep := &cityRep{m: m, wall: end.Sub(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&ms1)
	rep.mem.Mallocs = ms1.Mallocs - ms0.Mallocs
	rep.mem.TotalAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	rep.mem.PauseTotalNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	rec.add("engine.run", "engine", id, -1, start, end)
	for _, p := range checkCityMetrics(m) {
		rc.problem("run %d: %s", id, p)
	}
	return rep, nil
}

// citySetup is what a city run does before its first timed repetition:
// build the receiver and configuration and run a tenth-horizon warm-up, so
// the heap has grown to the city's size before timing starts.
func citySetup(rc *runCtx) (engine.Config, time.Duration, error) {
	t0 := time.Now()
	cfg := cityConfig(rc.workload, rc.seed, rc.scale)
	warm := cfg
	warm.Slots = max(1, cfg.Slots/10)
	if _, err := engine.Run(context.Background(), warm); err != nil {
		return cfg, 0, err
	}
	return cfg, time.Since(t0), nil
}

// atSpeed runs fn between two measurements of the box and returns their mean.
func atSpeed(rc *runCtx, fn func() error) (float64, error) {
	s0 := boxSpeed(rc.scale)
	err := fn()
	return (s0 + boxSpeed(rc.scale)) / 2, err
}

// cityReps repeats the identical run until another would overrun budget
// (always at least once). Every repetition must reproduce the first one's
// metrics exactly: the engine is deterministic in its configuration.
func cityReps(rc *runCtx, cfg engine.Config, budget time.Duration, rec *recorder) ([]*cityRep, error) {
	var reps []*cityRep
	start := time.Now()
	for {
		var rep *cityRep
		speed, err := atSpeed(rc, func() (err error) {
			rep, err = runCityRep(rc, cfg, rec, int64(len(reps)))
			return
		})
		if err != nil {
			return nil, err
		}
		rep.speed = speed
		if len(reps) > 0 && !reflect.DeepEqual(rep.m, reps[0].m) {
			rc.problem("repetition %d: metrics digest %x differs from the first run's %x", len(reps), digest(rep.m), digest(reps[0].m))
			rc.failed++
		}
		reps = append(reps, rep)
		rc.attempted++
		if el := time.Since(start); el+el/time.Duration(len(reps)) > budget {
			return reps, nil
		}
	}
}

// eventRates returns each repetition's events per second and CPU µs per
// event at the reference box speed (boxspeed.go).
func eventRates(reps []*cityRep) (perSec, cpuUS []float64) {
	for _, r := range reps {
		ev := float64(r.m.Events)
		perSec = append(perSec, ev/r.wall.Seconds()/r.speed)
		cpuUS = append(cpuUS, float64(r.cpu.Nanoseconds())/1e3/ev*r.speed)
	}
	return
}

// runCity is a city workload's untraced run.
func runCity(rc *runCtx) error {
	var (
		setups []float64
		cfg    engine.Config
	)
	for i := 0; i < 3; i++ {
		var d time.Duration
		speed, err := atSpeed(rc, func() (err error) {
			cfg, d, err = citySetup(rc)
			return
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds()*speed)
	}
	reps, err := cityReps(rc, cfg, rc.budget(1), nil)
	if err != nil {
		return err
	}
	if _, err := checkDrivers(rc, cfg); err != nil {
		return err
	}
	m := reps[0].m
	if m.Events == 0 || m.Arrivals == 0 {
		return fmt.Errorf("city run simulated nothing: %+v", *m)
	}
	perSec, cpuUS := eventRates(reps)
	var onTime int64
	for b := 0; 1<<(b+1) <= onTimeSlots; b++ {
		onTime += m.LatencyHist[b]
	}
	rc.e2e.set("setup_s", median(setups))
	rc.e2e.set("ops_per_s", median(perSec))
	rc.e2e.set("cpu_us_per_op", median(cpuUS))
	rc.e2e.set("delivery_ratio", m.DeliveryRatio())
	rc.e2e.set("deadline_ok_ratio", float64(onTime)/float64(m.Arrivals))
	var speeds, rawRates []float64
	for _, r := range reps {
		speeds = append(speeds, r.speed)
		rawRates = append(rawRates, float64(m.Events)/r.wall.Seconds())
	}
	rc.note("box_speed=%.3f raw: ops_per_s=%.6g", median(speeds), median(rawRates))
	rc.note("runs=%d events=%d arrivals=%d delivered=%d transmissions=%d digest=%016x",
		len(reps), m.Events, m.Arrivals, m.Delivered, m.Transmissions, digest(m))
	return nil
}

// traceCity is a city workload's traced run: an untraced reference
// repetition, repetitions with obs on and spans kept, then the engine,
// mac and interfere probes.
func traceCity(rc *runCtx) error {
	cfg, _, err := citySetup(rc)
	if err != nil {
		return err
	}
	var ref *cityRep
	refSpeed, err := atSpeed(rc, func() (err error) {
		ref, err = runCityRep(rc, cfg, nil, -1)
		return
	})
	if err != nil {
		return err
	}
	obs.Reset()
	obs.Enable()
	reps, err := cityReps(rc, cfg, rc.budget(0.4), rc.rec)
	obs.Disable()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(ref.m, reps[0].m) {
		rc.problem("obs changed the simulation: digest %x traced, %x untraced", digest(reps[0].m), digest(ref.m))
	}
	m := reps[0].m
	ev := float64(m.Events)
	var ns, allocs, bytes, pause []float64
	for _, r := range reps {
		ns = append(ns, float64(r.wall.Nanoseconds())/ev)
		allocs = append(allocs, float64(r.mem.Mallocs)/ev*1e3)
		bytes = append(bytes, float64(r.mem.TotalAlloc)/ev)
		pause = append(pause, float64(r.mem.PauseTotalNs)/1e6)
	}
	_, cpuUS := eventRates(reps)
	L := rc.layer
	L.set("engine.events", ev)
	L.set("engine.active_slots", float64(m.ActiveSlots))
	L.set("engine.collided_ratio", float64(m.CollidedTx)/float64(max(m.Transmissions, 1)))
	L.set("engine.ns_per_event", median(ns))
	L.set("engine.allocs_per_kevent", median(allocs))
	L.set("engine.bytes_per_event", median(bytes))
	L.set("engine.gc_pause_ms", median(pause))
	L.set("engine.foreign_tx", float64(m.ForeignTx))
	L.set("obs.trace_overhead_ratio", median(cpuUS)/(float64(ref.cpu.Nanoseconds())/1e3/ev*refSpeed))
	var speeds []float64
	for _, r := range reps {
		speeds = append(speeds, r.speed)
	}
	L.set("bench.box_speed", median(speeds))
	return probeEngine(rc, cfg)
}
