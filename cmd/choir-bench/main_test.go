package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCompareFailsOnRemovedPinnedBenchmark pins the gate's coverage of
// deletions: a benchmark the base report pins (ns/op or allocs/op) that is
// absent from the head report is a failure, while an unpinned one dropping
// out is only reported.
func TestCompareFailsOnRemovedPinnedBenchmark(t *testing.T) {
	kept := Result{Name: "BenchmarkKept", NsPerOp: 100, PinNs: true}
	old := &Report{Benchmarks: []Result{
		kept,
		{Name: "BenchmarkPinnedNs", NsPerOp: 100, PinNs: true},
		{Name: "BenchmarkPinnedAllocs", NsPerOp: 100, PinAllocs: true},
		{Name: "BenchmarkUnpinned", NsPerOp: 100},
	}}
	var out bytes.Buffer
	if got := compareReports(&out, old, old, 0.15); got != 0 {
		t.Fatalf("identical reports: %d failures\n%s", got, out.String())
	}
	out.Reset()
	if got := compareReports(&out, old, &Report{Benchmarks: []Result{kept}}, 0.15); got != 2 {
		t.Fatalf("head missing two pinned benchmarks: %d failures, want 2\n%s", got, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		pinned := strings.HasPrefix(line, "BenchmarkPinned")
		if failed := strings.Contains(line, "FAIL pinned benchmark removed"); failed != pinned {
			t.Errorf("wrong gate on line %q", line)
		}
	}
}

// TestCommittedBaselineCoversSuite keeps BENCH_choir.json, the report CI
// falls back to when the merge base predates the suite, in step with it:
// every pinned benchmark has a row carrying the same pins, so -compare
// never meets a gated name only one side knows.
func TestCommittedBaselineCoversSuite(t *testing.T) {
	rep, err := readReport("../../BENCH_choir.json")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Result{}
	for _, r := range rep.Benchmarks {
		rows[r.Name] = r
	}
	for _, bm := range suite() {
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
}
