package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareFailsOnRemovedPinnedBenchmark pins the gate's coverage of
// deletions: a benchmark the base report pins (ns/op or allocs/op) that is
// absent from the head report is a failure unless it is on the retired
// list, while an unpinned one dropping out is only reported.
func TestCompareFailsOnRemovedPinnedBenchmark(t *testing.T) {
	kept := Result{Name: "BenchmarkKept", NsPerOp: 100, PinNs: true}
	old := &Report{Benchmarks: []Result{
		kept,
		{Name: "BenchmarkPinnedNs", NsPerOp: 100, PinNs: true},
		{Name: "BenchmarkPinnedAllocs", NsPerOp: 100, PinAllocs: true},
		{Name: "BenchmarkUnpinned", NsPerOp: 100},
	}}
	var out bytes.Buffer
	if got := compareReports(&out, old, old, nil, 0.15); got != 0 {
		t.Fatalf("identical reports: %d failures\n%s", got, out.String())
	}
	out.Reset()
	head := &Report{Benchmarks: []Result{kept}}
	if got := compareReports(&out, old, head, nil, 0.15); got != 2 {
		t.Fatalf("head missing two pinned benchmarks: %d failures, want 2\n%s", got, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		pinned := strings.HasPrefix(line, "BenchmarkPinned")
		if failed := strings.Contains(line, "FAIL pinned benchmark removed"); failed != pinned {
			t.Errorf("wrong gate on line %q", line)
		}
	}
	// Retiring one of the two on purpose excuses exactly that one.
	out.Reset()
	retired := map[string]string{"BenchmarkPinnedNs": "its code path is deleted"}
	if got := compareReports(&out, old, head, retired, 0.15); got != 1 {
		t.Fatalf("one of two missing pinned benchmarks retired: %d failures, want 1\n%s", got, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "BenchmarkPinnedNs") && !strings.Contains(line, "retired: its code path is deleted") {
			t.Errorf("retired benchmark not reported as such: %q", line)
		}
		if strings.HasPrefix(line, "BenchmarkPinnedAllocs") && !strings.Contains(line, "FAIL pinned benchmark removed") {
			t.Errorf("unretired pinned benchmark excused: %q", line)
		}
	}
}

// TestCommittedBaselineCoversSuite keeps BENCH_choir.json, the committed
// report a local -compare reads as its base, in step with the suite:
// every pinned benchmark has a row carrying the same pins, every row is a
// suite benchmark or a retired one, and no name is both, so -compare never
// meets a gated name only one side knows.
func TestCommittedBaselineCoversSuite(t *testing.T) {
	rep, err := readReport("../../BENCH_choir.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Result{}
	for _, r := range rep.Benchmarks {
		rows[r.Name] = r
	}
	inSuite := map[string]bool{}
	for _, bm := range suite() {
		inSuite[bm.Name] = true
		if _, ok := retired[bm.Name]; ok {
			t.Errorf("%s is both in the suite and on the retired list", bm.Name)
		}
		r, ok := rows[bm.Name]
		if !ok {
			t.Errorf("%s: no row in BENCH_choir.json", bm.Name)
			continue
		}
		if r.PinNs != bm.PinNs || r.PinAllocs != bm.PinAllocs {
			t.Errorf("%s: committed pins ns=%v allocs=%v, suite has ns=%v allocs=%v",
				bm.Name, r.PinNs, r.PinAllocs, bm.PinNs, bm.PinAllocs)
		}
	}
	for name := range rows {
		if _, ok := retired[name]; !inSuite[name] && !ok {
			t.Errorf("%s: committed row is neither in the suite nor retired", name)
		}
	}
}
