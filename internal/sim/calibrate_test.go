package sim

import (
	"context"
	"fmt"
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
	serial := must(SuccessTableUncached(context.Background(), cfg))
	runtime.GOMAXPROCS(4)
	parallel := must(SuccessTableUncached(context.Background(), cfg))
	if s, p := fmt.Sprintf("%v", serial), fmt.Sprintf("%v", parallel); s != p {
		t.Errorf("GOMAXPROCS 1 table %s != GOMAXPROCS 4 table %s", s, p)
	}
}

func TestSuccessTableEmptyConfigs(t *testing.T) {
	cfg := fastCal(106)
	cfg.Trials = 0
	if table := must(SuccessTableUncached(context.Background(), cfg)); len(table) != cfg.MaxUsers {
		t.Errorf("zero-trial table length %d", len(table))
	}
	cfg = fastCal(107)
	cfg.MaxUsers = 0
	if table := must(SuccessTableUncached(context.Background(), cfg)); len(table) != 0 {
		t.Errorf("zero-user table length %d", len(table))
	}
}
