package sim

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"choir/internal/backend"
	"choir/internal/exec"
	"choir/internal/lora"
)

// CalibrationConfig controls Monte-Carlo calibration of the Choir PHY.
type CalibrationConfig struct {
	Params lora.Params
	// PayloadLen in bytes.
	PayloadLen int
	// MaxUsers is the largest collision size to calibrate.
	MaxUsers int
	// Trials per collision size.
	Trials int
	// Regime draws each user's SNR.
	Regime SNRRegime
	Seed   uint64
}

// DefaultCalibration returns the calibration used by the figure-8 sweeps.
func DefaultCalibration() CalibrationConfig {
	return CalibrationConfig{
		Params:     lora.DefaultParams(),
		PayloadLen: 8,
		MaxUsers:   10,
		Trials:     6,
		Regime:     MediumSNR,
		Seed:       1,
	}
}

// SuccessTable Monte-Carlos the real IQ-level Choir decoder across
// collision sizes 1..MaxUsers and returns per-size per-user decode rates:
// table[k-1] is the probability that one specific packet out of k
// concurrent ones is recovered, and every rate is 0 when Trials is 0. A
// negative MaxUsers or Trials is an error. Results are memoized per
// configuration: every field affects the table and every field is
// comparable, so the cache keys on the struct itself. A canceled calibration
// returns the context's error and stores nothing in the memo cache — a
// partial table must never masquerade as the real one.
func SuccessTable(ctx context.Context, cfg CalibrationConfig) ([]float64, error) {
	if v, ok := calibCache.Load(cfg); ok {
		return v.([]float64), nil
	}
	table, err := successTable(ctx, cfg)
	if err != nil {
		return nil, err
	}
	calibCache.Store(cfg, table)
	return table, nil
}

// successTable is SuccessTable without the memo cache, for the tests and the
// benchmark that must recompute. Each collision size is one grid cell: a
// trial draws its users' SNRs from its derived seed and is decoded and
// scored by decodeCapture on a pooled "choir" backend, and a size's rate is
// the goodput of its trials' fold.
func successTable(ctx context.Context, cfg CalibrationConfig) ([]float64, error) {
	if cfg.MaxUsers < 0 || cfg.Trials < 0 {
		return nil, fmt.Errorf("sim: calibration needs MaxUsers and Trials >= 0, got %d and %d", cfg.MaxUsers, cfg.Trials)
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	pool, err := backend.NewPool("choir")
	if err != nil {
		return nil, err
	}
	cells, err := grid(ctx, repeat(cfg.Trials, cfg.MaxUsers), func(cell, trial int) CompareRow {
		k := cell + 1
		seed := exec.DeriveSeed(cfg.Seed, uint64(k), uint64(trial))
		rng := rand.New(rand.NewPCG(seed, 0xCA11B))
		snrs := make([]float64, k)
		for j := range snrs {
			snrs[j] = cfg.Regime.Sample(rng)
		}
		sc := Scenario{Params: cfg.Params, PayloadLen: cfg.PayloadLen, SNRsDB: snrs, Seed: seed}
		sig, truth := sc.Synthesize()
		return decodeCapture(pool, cfg.Params, sig, cfg.PayloadLen, truth)
	})
	if err != nil {
		return nil, err
	}
	table := make([]float64, len(cells))
	for i, rows := range cells {
		table[i] = fold(CompareRow{}, rows).Goodput()
	}
	return table, nil
}

// calibCache memoizes SuccessTable results by CalibrationConfig.
// A pointer so tests can swap in a fresh map without copying lock state.
var calibCache = new(sync.Map)

// AnalyticChoirTable returns a closed-form approximation of the calibrated
// success table, used where running the IQ decoder for every point would be
// prohibitive (wide MAC sweeps). It models the two loss mechanisms the
// paper names (Sec. 5.2 note 3): fractional-offset collisions between users
// (birthday-style, resolution ~resolvable distinct offsets) and a per-user
// noise floor term.
func AnalyticChoirTable(maxUsers int, baseSuccess float64, resolvableOffsets float64) []float64 {
	table := make([]float64, maxUsers)
	for k := 1; k <= maxUsers; k++ {
		// P(this user's fractional offset stays clear of the other k-1).
		clear := 1.0
		for j := 0; j < k-1; j++ {
			clear *= 1 - 1/resolvableOffsets
		}
		table[k-1] = baseSuccess * clear
	}
	return table
}
