// Command choir-bench runs the repository's pinned performance benchmarks
// with fixed seeds and emits a machine-readable report, so CI can gate merges
// on hot-path regressions without parsing `go test -bench` text output.
//
// Modes:
//
//	choir-bench [-filter re] [-out BENCH_choir.json]
//	    Run the suite and write the JSON report.
//
//	choir-bench -compare old.json new.json [-threshold 0.15]
//	    Compare two reports benchstat-style. Exits non-zero when a pinned
//	    benchmark's ns/op regresses beyond the threshold, when an
//	    alloc-pinned benchmark's allocs/op increases at all, or when a
//	    benchmark pinned in the old report is missing from the new one
//	    and not on this binary's retired list (suite.go).
//
// The suite deliberately re-declares the hot-path benchmarks (rather than
// shelling out to `go test -bench`) so the binary is hermetic: fixed seeds,
// fixed shapes, one process, no test-framework flag plumbing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
)

func main() {
	var (
		out       = flag.String("out", "BENCH_choir.json", "report output path")
		filter    = flag.String("filter", "", "regexp selecting benchmarks to run (empty = all)")
		compare   = flag.Bool("compare", false, "compare two reports (old.json new.json) instead of running")
		threshold = flag.Float64("threshold", 0.15, "relative ns/op regression that fails the compare gate")
		list      = flag.Bool("list", false, "list benchmark names and exit")
	)
	flag.Parse()

	if *list {
		for _, b := range suite() {
			fmt.Println(b.Name)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: choir-bench -compare old.json new.json")
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			fatalf("read old report: %v", err)
		}
		cur, err := readReport(flag.Arg(1))
		if err != nil {
			fatalf("read new report: %v", err)
		}
		if failures := compareReports(os.Stdout, old, cur, retired, *threshold); failures > 0 {
			fatalf("%d benchmark regression(s) beyond gate", failures)
		}
		fmt.Println("bench gate: OK")
		return
	}

	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			fatalf("bad -filter: %v", err)
		}
	}
	rep := runSuite(re)
	if len(rep.Benchmarks) == 0 {
		fatalf("no benchmarks matched filter %q", *filter)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("marshal report: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("write report: %v", err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "choir-bench: "+format+"\n", args...)
	os.Exit(1)
}

// Report is the machine-readable benchmark report, one entry per benchmark.
type Report struct {
	GoOS         string   `json:"goos"`
	GoArch       string   `json:"goarch"`
	GoVersion    string   `json:"go_version"`
	NumCPU       int      `json:"num_cpu"`
	Benchmarks   []Result `json:"benchmarks"`
	SchemaNote   string   `json:"schema_note,omitempty"`
	SuiteVersion int      `json:"suite_version"`
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PinNs marks the benchmark as gated on ns/op regressions.
	PinNs bool `json:"pin_ns"`
	// PinAllocs marks the benchmark as gated on any allocs/op increase
	// (the zero-alloc kernels of the decode hot path).
	PinAllocs bool `json:"pin_allocs"`
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func runSuite(filter *regexp.Regexp) *Report {
	rep := &Report{
		GoOS:         runtime.GOOS,
		GoArch:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		SuiteVersion: 1,
		SchemaNote:   "ns_per_op gates at -threshold; pin_allocs entries fail on any allocs/op increase",
	}
	for _, b := range suite() {
		if filter != nil && !filter.MatchString(b.Name) {
			continue
		}
		fmt.Printf("%-40s", b.Name)
		res := b.run()
		fmt.Printf("%12.0f ns/op %8d allocs/op %10d B/op  (%d iters)\n",
			res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.Iterations)
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	return rep
}

// compareReports prints a benchstat-style delta table and returns the number
// of gate failures. retired maps the names of benchmarks deleted on purpose
// to the reason: those may be missing from cur.
func compareReports(w io.Writer, old, cur *Report, retired map[string]string, threshold float64) int {
	oldByName := map[string]Result{}
	for _, b := range old.Benchmarks {
		oldByName[b.Name] = b
	}
	names := make([]string, 0, len(cur.Benchmarks))
	curByName := map[string]Result{}
	for _, b := range cur.Benchmarks {
		names = append(names, b.Name)
		curByName[b.Name] = b
	}
	sort.Strings(names)

	failures := 0
	fmt.Fprintf(w, "%-40s %14s %14s %8s %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "gate")
	for _, name := range names {
		nb := curByName[name]
		ob, ok := oldByName[name]
		if !ok {
			fmt.Fprintf(w, "%-40s %14s %14.0f %8s %s\n", name, "-", nb.NsPerOp, "-", "new")
			continue
		}
		delta := 0.0
		if ob.NsPerOp > 0 {
			delta = (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		}
		gate := "ok"
		if nb.PinNs && delta > threshold {
			gate = fmt.Sprintf("FAIL ns/op regression > %.0f%%", threshold*100)
			failures++
		}
		if nb.PinAllocs && nb.AllocsPerOp > ob.AllocsPerOp {
			gate = fmt.Sprintf("FAIL allocs/op %d -> %d", ob.AllocsPerOp, nb.AllocsPerOp)
			failures++
		}
		fmt.Fprintf(w, "%-40s %14.0f %14.0f %+7.1f%% %s\n", name, ob.NsPerOp, nb.NsPerOp, delta*100, gate)
	}
	for _, b := range old.Benchmarks {
		if _, ok := curByName[b.Name]; !ok {
			// A pinned benchmark that vanished is a gate nobody is
			// watching any more, not a pass.
			gate := "removed"
			if reason, ok := retired[b.Name]; ok {
				gate = "retired: " + reason
			} else if b.PinNs || b.PinAllocs {
				gate = "FAIL pinned benchmark removed"
				failures++
			}
			fmt.Fprintf(w, "%-40s %14.0f %14s %8s %s\n", b.Name, b.NsPerOp, "-", "-", gate)
		}
	}
	return failures
}
