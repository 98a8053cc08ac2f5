// Command benchmark is the repository's benchmark: five workloads that drive
// the gateway and the city engine the way their users do, six end-to-end
// metrics every workload reports, and a traced run that fills a per-layer
// ledger. BENCHMARK.json at the repository root names all of it; README.md
// in this directory says why each workload and metric exists.
//
//	go run ./benchmark                        every workload, untraced
//	go run ./benchmark -traced                ... then each once more, traced
//	go run ./benchmark -check                 two interleaved sets per workload against the bounds
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                          one run; the last line is its JSON result
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// workloadDef is one row of the workload table.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"gw_light_closed", "Closed loop, 2 in flight, smallest SF7 frames over loopback TCP with the journal on: the only place trace, ingest, queue and journal are a visible share of a frame."},
	{"gw_light_open", "Open loop, Poisson 16 frames/s on the same path, timed from each frame's due time: independent sensors do not wait, so queueing, idle wake-ups and the RX1 deadline show."},
	{"gw_heavy_closed", "Closed loop, 2 in flight, in-process Submit, SF7-SF10 collisions of 1-6 users on 2 workers: choir and dsp do all the work; trace, TCP and journal are bypassed and must read no change."},
	{"city_sparse", "engine.Run repeated: 1M nodes, 16 gateways, few contenders per slot: wake, event queue, channel resolve and per-node state dominate, and memory peaks."},
	{"city_dense", "engine.Run repeated: 50k nodes, 4 gateways, a foreign network and the capture model at 30% collided transmissions: contention groups, foreign draws and the fold dominate."},
}

// runCtx is what one single-workload run carries around.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	outDir   string
	log      io.Writer

	rec   *recorder  // nil when untraced
	e2e   *metricSet // untraced
	layer *metricSet // traced

	attempted, failed int64
	problems          []string // broken invariants: any makes the run incorrect
}

func (rc *runCtx) budget(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

func (rc *runCtx) problem(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	rc.problems = append(rc.problems, p)
	fmt.Fprintln(rc.log, "# PROBLEM:", p)
}

func (rc *runCtx) note(format string, args ...any) {
	fmt.Fprintf(rc.log, "# "+format+"\n", args...)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runInfo is recorded with every result so two results can be told apart.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Comparable bool    `json:"comparable"`
	Traced     bool    `json:"traced"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runOne runs one workload in this process and returns its result.
func runOne(name string, seed uint64, seconds, scale float64, traced bool, outDir string, log io.Writer) (result, error) {
	// Sizes assume two cores; pinning makes a bigger machine comparable.
	runtime.GOMAXPROCS(2)
	rc := &runCtx{workload: name, seed: seed, seconds: seconds * scale, scale: scale, outDir: outDir, log: log}
	info := runInfo{
		Workload: name, Seed: seed, Seconds: rc.seconds, Scale: scale, Comparable: scale == 1, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
	}
	if data, err := json.Marshal(info); err == nil {
		fmt.Fprintf(log, "# info %s\n", data)
	}
	var ms *metricSet
	if traced {
		rc.rec = newRecorder(name)
		rc.layer = newMetricSet(perLayer)
		ms = rc.layer
	} else {
		rc.e2e = newMetricSet(endToEnd)
		ms = rc.e2e
	}
	spec, isGateway := gwSpecs[name]
	var err error
	switch {
	case isGateway && traced:
		err = traceGateway(rc, spec)
	case isGateway:
		err = runGateway(rc, spec)
	case city(name):
		if traced {
			err = traceCity(rc)
		} else {
			err = runCity(rc)
		}
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return result{}, err
	}
	if traced {
		if err := rc.rec.flush(outDir, log); err != nil {
			return result{}, err
		}
	} else {
		rc.e2e.set("peak_rss_mb", peakRSSMB())
		for _, d := range endToEnd {
			if rc.e2e.values[d.Name] <= 0 {
				rc.problem("end-to-end metric %s was not measured", d.Name)
			}
		}
	}
	res := result{Correct: len(rc.problems) == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: ms.export()}
	for _, d := range ms.defs {
		fmt.Fprintf(log, "%-16s %-40s %16.6g %s\n", name, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(log, "%-16s %-40s %16d count\n%-16s %-40s %16d count\n", name, "ops", res.Attempted, name, "failed", res.Failed)
	return res, nil
}

// child re-executes this binary for one workload, so peak RSS and GC state
// belong to that workload alone. Its output is passed through; its last
// line is the result.
func child(name string, seed uint64, seconds, scale float64, traced bool, outDir string, out io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := osexec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
		"-trace", tr, "-out", outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return result{}, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return res, nil // an incorrect run exits non-zero but still reports
}

// runAll runs every workload in its own process, untraced and, if asked,
// traced, and writes out/result.json.
func runAll(seed uint64, seconds, scale float64, traced bool, outDir string) error {
	type entry struct {
		Untraced *result `json:"untraced"`
		Traced   *result `json:"traced,omitempty"`
	}
	all := map[string]*entry{}
	ok := true
	for _, w := range workloads {
		res, err := child(w.Name, seed, seconds, scale, false, outDir, os.Stdout)
		if err != nil {
			return err
		}
		ok = ok && res.Correct
		all[w.Name] = &entry{Untraced: &res}
	}
	if traced {
		for _, w := range workloads {
			res, err := child(w.Name, seed, seconds, scale, true, outDir, os.Stdout)
			if err != nil {
				return err
			}
			ok = ok && res.Correct
			all[w.Name].Traced = &res
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"seed": seed, "seconds": seconds, "scale": scale, "comparable": scale == 1,
		"nproc": runtime.NumCPU(), "go_version": runtime.Version(), "commit": commit(), "workloads": all,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# results ->", path)
	if !ok {
		return fmt.Errorf("at least one workload was incorrect or invalid")
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print its JSON result as the last line (default: all five, each in its own process)")
		seed     = flag.Uint64("seed", 1, "seeds payloads, offsets, noise, frame order and the arrival schedule")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured time per run")
		trace    = flag.Int("trace", 0, "with -workload: 1 makes it the traced run (per-layer metrics, span file)")
		traced   = flag.Bool("traced", false, "without -workload: after the untraced pass, run every workload traced")
		check    = flag.Bool("check", false, "run two interleaved sets of untraced runs per workload and compare their medians against BENCHMARK.json's bounds")
		runs     = flag.Int("runs", 3, "with -check: runs per set")
		scale    = flag.Float64("scale", 1, "shrink sizes and time by this factor (tests); results are marked non-comparable")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for span files, results and journal scratch")
	)
	flag.Parse()
	var err error
	switch {
	case *workload != "":
		var res result
		res, err = runOne(*workload, *seed, *seconds, *scale, *trace == 1, *outDir, os.Stdout)
		if err == nil {
			data, _ := json.Marshal(res)
			fmt.Printf("%s\n", data)
			if !res.Correct {
				os.Exit(2)
			}
		}
	case *check:
		err = runCheck(*seed, *seconds, *scale, *runs, *outDir)
	default:
		err = runAll(*seed, *seconds, *scale, *traced, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
