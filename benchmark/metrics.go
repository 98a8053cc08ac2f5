package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// metricDef names one metric, as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them; "op" is a frame on the gateway workloads and an engine event
// on the city workloads, and "payload" is an IQ payload there and a
// simulated packet here (README.md has the per-workload definitions). The
// three times are reported at the reference box speed (boxspeed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"delivery_ratio", "ratio", "higher"},
	{"deadline_ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// heavyCells are the (SF, users) shapes of the heavy pool; the choir layer
// keeps a decode-time row for the nine the ISSUE singles out.
var heavyCells = []struct{ sf, users int }{
	{7, 1}, {7, 2}, {7, 3}, {8, 2}, {8, 3}, {8, 4}, {8, 6}, {9, 1}, {9, 2}, {9, 4}, {10, 1}, {10, 2},
}

var (
	backendNames = []string{"choir", "relaxed", "strongest", "slotshift", "superposed"}
	stageNames   = []string{"preamble", "dechirp", "fft", "peak_search", "residual_min", "sic", "data"}
	stageCounted = []string{"fft", "residual_min", "peak_search", "sic"}
	sweepRates   = []int{16, 24, 32} // frames/s; the first is gw_light_open's own rate
	cellRows     = []string{"sf7u1", "sf7u2", "sf8u2", "sf8u4", "sf8u6", "sf9u2", "sf9u4", "sf10u1", "sf10u2"}
)

// cellRow is the choir layer's decode-time row for one heavy cell, if it
// keeps one.
func cellRow(sf, users int) (string, bool) {
	c := fmt.Sprintf("sf%du%d", sf, users)
	for _, r := range cellRows {
		if r == c {
			return "choir.decode_ms." + c, true
		}
	}
	return "", false
}

// perLayer is the traced run's ledger: one row per thing a layer does, named
// after the repo's packages. A traced run prints all of them; a row whose
// layer the workload bypasses (or whose probe belongs to another workload)
// reads 0. README.md says which workload fills which row and which
// end-to-end metric each row is expected to move.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{name, unit, better}) }

	add("trace.encode_us_per_frame", "us", "lower")
	add("trace.decode_us_per_frame", "us", "lower")
	add("trace.bytes_per_frame", "B", "lower")

	add("gateway.admit_us_per_frame", "us", "lower")
	add("gateway.deliver_us_per_frame", "us", "lower")
	add("gateway.queue_wait_p50_ms", "ms", "lower")
	add("gateway.queue_wait_p90_ms", "ms", "lower")
	add("gateway.latency_p50_ms", "ms", "lower")
	add("gateway.latency_p90_ms", "ms", "lower")
	add("gateway.latency_tail_ms", "ms", "lower")
	add("gateway.latency_tail_pct", "pct", "higher")
	add("gateway.latency_max_ms", "ms", "lower")
	add("gateway.latency_samples", "count", "higher")
	add("gateway.gen_late_p99_ms", "ms", "lower")
	add("gateway.backlog_end", "count", "lower")
	add("gateway.overhead_us_per_frame", "us", "lower")
	add("gateway.attempts_per_frame", "count", "lower")
	add("gateway.first_rung_ratio", "ratio", "higher")
	add("gateway.refused", "count", "lower")
	add("gateway.shed", "count", "lower")
	add("gateway.failed", "count", "lower")
	add("gateway.allocs_per_frame", "count", "lower")
	for _, q := range []string{"p50", "p90"} {
		for _, r := range sweepRates {
			add(fmt.Sprintf("gateway.sweep.%s_ms.r%d", q, r), "ms", "lower")
		}
	}
	add("gateway.max_rate_fps", "1/s", "higher")
	add("gateway.batch8_speedup", "ratio", "higher")

	add("journal.append_us_per_frame", "us", "lower")
	add("journal.complete_us_per_frame", "us", "lower")
	add("journal.bytes_per_frame", "B", "lower")
	add("journal.scan_ms_per_kframe", "ms", "lower")
	add("journal.e2e_cost_us_per_frame", "us", "lower")

	for _, b := range backendNames {
		add("backend."+b+".decode_ms_per_frame", "ms", "lower")
		add("backend."+b+".recovery", "ratio", "higher")
	}
	add("backend.dispatch_overhead_us", "us", "lower")

	for _, c := range cellRows {
		add("choir.decode_ms."+c, "ms", "lower")
	}
	for _, s := range stageNames {
		add("choir.stage."+s+"_ms_per_frame", "ms", "lower")
	}
	for _, s := range stageCounted {
		add("choir.stage."+s+"_calls_per_frame", "count", "lower")
	}
	add("choir.users_detected_per_frame", "count", "higher")
	add("choir.users_decoded_ratio", "ratio", "higher")
	add("choir.crc_failed_per_frame", "count", "lower")
	add("choir.allocs_per_decode_into", "count", "lower")
	add("choir.incremental_overhead_us", "us", "lower")

	for _, n := range []int{2048, 4096, 8192, 16384} {
		add(fmt.Sprintf("dsp.fft_pruned_us.n%d", n), "us", "lower")
	}
	add("dsp.fft_full_us.n8192", "us", "lower")
	add("dsp.spectrum_into_us.n2048", "us", "lower")
	add("dsp.spectrum_into_us.n8192", "us", "lower")
	add("dsp.batch_spectrum_us_per_lane.n2048", "us", "lower")
	add("dsp.find_peaks_us.n8192", "us", "lower")
	add("dsp.noise_floor_us.n8192", "us", "lower")
	add("dsp.fft_share", "ratio", "lower")

	add("lora.modulate_us_per_frame", "us", "lower")
	add("lora.decode_symbols_us_per_frame", "us", "lower")
	add("sim.synthesize_ms_per_frame", "ms", "lower")

	add("engine.events", "count", "lower")
	add("engine.active_slots", "count", "lower")
	add("engine.collided_ratio", "ratio", "lower")
	add("engine.ns_per_event", "ns", "lower")
	add("engine.allocs_per_kevent", "count", "lower")
	add("engine.bytes_per_event", "B", "lower")
	add("engine.gc_pause_ms", "ms", "lower")
	add("engine.layout_s", "s", "lower")
	add("engine.workers1_wall_ratio", "ratio", "higher")
	add("engine.foreign_tx", "count", "lower")
	add("engine.slot_driver_ns_per_event", "ns", "lower")
	add("engine.queue_ns_per_op", "ns", "lower")

	add("interfere.per_tx_prob_ns", "ns", "lower")
	add("mac.per_tx_prob_ns", "ns", "lower")

	add("obs.trace_overhead_ratio", "ratio", "lower")
	// Not a layer of the program: the box, so the time rows above can be
	// read against it (boxspeed.go).
	add("bench.box_speed", "ratio", "higher")
	return d
}

// value is one measured metric in a result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints: exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricSet collects the values of one run against a fixed list of names, so
// a misspelt or forgotten metric fails the run instead of vanishing.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (ms *metricSet) set(name string, v float64) {
	for _, d := range ms.defs {
		if d.Name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			ms.values[name] = v
			return
		}
	}
	panic("benchmark: metric " + name + " is not in this pass's table")
}

// export returns every metric of the table; unset rows read 0 (a bypassed
// layer), which only the per-layer table may have.
func (ms *metricSet) export() map[string]value {
	out := make(map[string]value, len(ms.defs))
	for _, d := range ms.defs {
		out[d.Name] = value{ms.values[d.Name], d.Unit}
	}
	return out
}

// quantile returns the nearest-rank q-quantile of sorted (ascending) xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailPercentile is the highest whole percentile of n samples that still has
// at least ten samples beyond it (0 when not even the median has): the only
// tail a run of n operations can report without quoting its own outliers.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the rule the acceptance check uses), so
// the spread table in README.md can be compared with the driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// benchmarkFile is BENCHMARK.json: the one place bounds live.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}
