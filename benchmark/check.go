package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// findBenchmarkFile looks for BENCHMARK.json where `go run ./benchmark` and
// `go test ./benchmark` leave the working directory.
func findBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		bf, err := readBenchmarkFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			return bf, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, firstErr
}

// worse is how far b is on the wrong side of a, as a share of a.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCheck measures the same code twice: sets A and B of `runs` untraced
// runs per workload, interleaved A B A B … because this kind of box drifts
// by tens of percent over minutes while back-to-back runs agree to a few —
// which is also how a parent and a change have to be compared. It prints
// each set's median and quartiles, the spread, and B's median against A's
// with the metric's bound, and fails when a bound or an exact metric does
// not hold. Every run uses its own seed, as the acceptance check does.
func runCheck(seed uint64, seconds, scale float64, runs int, outDir string) error {
	bf, err := findBenchmarkFile()
	if err != nil {
		return err
	}
	if runs < 3 {
		return fmt.Errorf("-check needs at least 3 runs per set")
	}
	bad := 0
	fmt.Printf("%-16s %-18s %12s %12s %12s %8s | %12s %8s | %8s %6s\n",
		"workload", "metric", "A.median", "A.q1", "A.q3", "A.iqr", "B.median", "B.iqr", "B-vs-A", "bound")
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			// A and B share seeds pairwise: the same inputs, so simulated
			// statistics must repeat exactly.
			res, err := child(w.Name, seed+uint64(i/2), seconds, scale, false, outDir, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Printf("%-16s run %d: correct=%v failed=%d of %d\n", w.Name, i, res.Correct, res.Failed, res.Attempted)
				bad++
			}
			for name, v := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			diff := worse(ma, mb, m.Better)
			verdict := ""
			switch {
			case city(w.Name) && (m.Name == "delivery_ratio" || m.Name == "deadline_ok_ratio"):
				for i := range a {
					if a[i] != b[i] {
						verdict = "  NOT EXACT"
						bad++
						break
					}
				}
			case diff > m.Bound:
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-16s %-18s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %7.2f%% | %+7.2f%% %5.0f%%%s\n",
				w.Name, m.Name, ma, aq1, aq3, 100*(aq3-aq1)/ma, mb, 100*(bq3-bq1)/mb, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: -check: %d disagreements\n", bad)
		return fmt.Errorf("two sets of runs of the same code disagree")
	}
	return nil
}

func city(workload string) bool { return workload == "city_sparse" || workload == "city_dense" }
