package sim

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// fastCal keeps IQ-level calibration cheap: two collision sizes, two
// trials each.
func fastCal(seed uint64) CalibrationConfig {
	cfg := DefaultCalibration()
	cfg.MaxUsers = 2
	cfg.Trials = 2
	cfg.Seed = seed
	return cfg
}

func TestCalibCacheHitsOnIdenticalConfigs(t *testing.T) {
	cfg := fastCal(101)
	first := must(SuccessTable(context.Background(), cfg))
	again := must(SuccessTable(context.Background(), cfg)) // fresh but identical struct
	if &again[0] != &first[0] {
		t.Error("identical configs did not share the cached table")
	}
}

func TestCalibCacheMissesOnDifferingSeeds(t *testing.T) {
	a := fastCal(102)
	b := fastCal(103)
	ta := must(SuccessTable(context.Background(), a))
	tb := must(SuccessTable(context.Background(), b))
	if &ta[0] == &tb[0] {
		t.Error("different seeds shared one cache entry")
	}
}

// TestSuccessTableDeterministicAcrossWorkers is the calibration half of
// the engine's determinism regression: the same seed must yield a
// byte-identical table whether the trials run serially or four wide.
func TestSuccessTableDeterministicAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := fastCal(104)
	serial := must(successTable(context.Background(), cfg))
	runtime.GOMAXPROCS(4)
	parallel := must(successTable(context.Background(), cfg))
	if s, p := fmt.Sprintf("%v", serial), fmt.Sprintf("%v", parallel); s != p {
		t.Errorf("GOMAXPROCS 1 table %s != GOMAXPROCS 4 table %s", s, p)
	}
}

// TestSuccessTableEmptyConfigs: zero trials give an all-zero table of
// MaxUsers rates, zero users an empty one, and a negative count an error
// rather than a panic.
func TestSuccessTableEmptyConfigs(t *testing.T) {
	for _, tc := range []struct {
		name             string
		maxUsers, trials int
		want             []float64 // nil: an error
	}{
		{"zero trials", 2, 0, []float64{0, 0}},
		{"zero users", 0, 2, []float64{}},
		{"negative users", -1, 2, nil},
		{"negative trials", 2, -1, nil},
	} {
		cfg := fastCal(106)
		cfg.MaxUsers, cfg.Trials = tc.maxUsers, tc.trials
		table, err := SuccessTable(context.Background(), cfg)
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%s: table %v, want an error", tc.name, table)
		case tc.want != nil && (err != nil || !reflect.DeepEqual(table, tc.want)):
			t.Errorf("%s: table %v, error %v; want %v", tc.name, table, err, tc.want)
		}
	}
}

// BenchmarkSuccessTable Monte-Carlos the IQ-level calibration grid uncached.
// Read it at `go test -cpu 1,2`: the ratio of the two rows is the fan-out's
// wall-clock speedup on this machine; the determinism tests above assert the
// tables themselves are identical.
func BenchmarkSuccessTable(b *testing.B) {
	cfg := DefaultCalibration()
	cfg.MaxUsers = 4
	cfg.Trials = 2
	b.ResetTimer()
	var table []float64
	var err error
	for i := 0; i < b.N; i++ {
		if table, err = successTable(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(table[0], "success@1user")
}
