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
	// Workers bounds the number of concurrent decode workers (<= 0 uses
	// every CPU, 1 runs serially). Every trial derives its own seed and
	// decoder, so the table is identical for any worker count; Workers is
	// therefore excluded from the memo-cache key.
	Workers int
}

// digest returns the cache key for a configuration: a comparable string
// over every result-affecting field. Keying the sync.Map on a string
// rather than the struct itself guards against a future non-comparable
// field (a slice of SNR points, say) panicking the cache, and makes the
// Workers exclusion explicit.
func (c CalibrationConfig) digest() string {
	return fmt.Sprintf("%#v|payload=%d|maxusers=%d|trials=%d|regime=%d|seed=%d",
		c.Params, c.PayloadLen, c.MaxUsers, c.Trials, int(c.Regime), c.Seed)
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
// concurrent ones is recovered. Results are memoized per configuration
// (ignoring Workers, which cannot affect them). A canceled calibration
// returns the context's error and stores nothing in the memo cache — a
// partial table must never masquerade as the real one.
func SuccessTable(ctx context.Context, cfg CalibrationConfig) ([]float64, error) {
	key := cfg.digest()
	if v, ok := calibCache.Load(key); ok {
		return v.([]float64), nil
	}
	table, err := SuccessTableUncached(ctx, cfg)
	if err != nil {
		return nil, err
	}
	calibCache.Store(key, table)
	return table, nil
}

// SuccessTableUncached is SuccessTable without the memo cache, for
// benchmarking the calibration engine itself and for determinism tests
// that must recompute. The (collision size × trial) grid is fanned out
// across cfg.Workers goroutines; each trial owns a derived seed, a pooled
// decoder and a private result slot, and the reduction runs in trial
// order, so the table is byte-identical for any worker count. Once ctx
// fires no further trials start and the context's error is returned
// instead of a partial table.
func SuccessTableUncached(ctx context.Context, cfg CalibrationConfig) ([]float64, error) {
	table := make([]float64, cfg.MaxUsers)
	if cfg.MaxUsers <= 0 || cfg.Trials <= 0 {
		return table, nil
	}
	dpool, err := backend.NewPool("choir", cfg.Params)
	if err != nil {
		return nil, err
	}
	type cell struct{ recovered, total int }
	cells, err := exec.Map(ctx, exec.NewPool(cfg.Workers), cfg.MaxUsers*cfg.Trials, func(i int) cell {
		k := i/cfg.Trials + 1
		trial := i % cfg.Trials
		seed := exec.DeriveSeed(cfg.Seed, uint64(k), uint64(trial))
		rng := rand.New(rand.NewPCG(seed, 0xCA11B))
		snrs := make([]float64, k)
		for j := range snrs {
			snrs[j] = cfg.Regime.Sample(rng)
		}
		sc := Scenario{
			Params:     cfg.Params,
			PayloadLen: cfg.PayloadLen,
			SNRsDB:     snrs,
			Seed:       seed,
		}
		b := dpool.Get()
		defer dpool.Put(b)
		r, n := sc.DecodeWith(backend.Decoder(b))
		return cell{recovered: r, total: n}
	})
	if err != nil {
		return nil, err
	}
	for k := 1; k <= cfg.MaxUsers; k++ {
		recovered, total := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			c := cells[(k-1)*cfg.Trials+trial]
			recovered += c.recovered
			total += c.total
		}
		if total > 0 {
			table[k-1] = float64(recovered) / float64(total)
		}
	}
	return table, nil
}

// calibCache memoizes SuccessTable results by CalibrationConfig digest.
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
