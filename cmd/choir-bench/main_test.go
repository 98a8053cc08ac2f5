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
