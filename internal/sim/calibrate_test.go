package sim

import (
	"context"
	"fmt"
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
	// Workers must not affect the key: the parallel request reuses the
	// serial run's cache entry.
	par := cfg
	par.Workers = 8
	if cached := must(SuccessTable(context.Background(), par)); &cached[0] != &first[0] {
		t.Error("Workers leaked into the cache key")
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

func TestCalibDigestCoversResultFields(t *testing.T) {
	base := fastCal(1)
	mutants := []CalibrationConfig{base, base, base, base, base}
	mutants[0].PayloadLen++
	mutants[1].MaxUsers++
	mutants[2].Trials++
	mutants[3].Regime = HighSNR
	mutants[4].Seed++
	seen := map[string]bool{base.digest(): true}
	for i, m := range mutants {
		d := m.digest()
		if seen[d] {
			t.Errorf("mutant %d digest collides: %s", i, d)
		}
		seen[d] = true
	}
	// Workers is explicitly excluded — it cannot change results.
	w := base
	w.Workers = 8
	if w.digest() != base.digest() {
		t.Error("Workers changed the digest")
	}
}

// TestSuccessTableDeterministicAcrossWorkers is the calibration half of
// the engine's determinism regression: the same seed must yield a
// byte-identical table whether the trials run serially or on 8 workers.
func TestSuccessTableDeterministicAcrossWorkers(t *testing.T) {
	cfg := fastCal(104)
	cfg.Workers = 1
	serial := must(SuccessTableUncached(context.Background(), cfg))
	cfg.Workers = 8
	parallel := must(SuccessTableUncached(context.Background(), cfg))
	if s, p := fmt.Sprintf("%v", serial), fmt.Sprintf("%v", parallel); s != p {
		t.Errorf("Workers=1 table %s != Workers=8 table %s", s, p)
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
