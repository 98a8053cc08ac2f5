package sim

import (
	"context"
	"fmt"

	"choir/internal/backend"
	"choir/internal/exec"
	"choir/internal/fault"
	"choir/internal/lora"
)

// FaultSweepConfig parameterizes the decode-robustness experiment: how does
// collision recovery degrade as each fault class's intensity grows?
type FaultSweepConfig struct {
	// Params is the PHY configuration (DefaultParams if zero SF).
	Params lora.Params
	// PayloadLen is the payload size in bytes.
	PayloadLen int
	// Users is the number of colliding transmitters per trial.
	Users int
	// SNRDB is each user's per-sample receive SNR.
	SNRDB float64
	// Classes selects the fault classes to sweep (all when empty).
	Classes []fault.Class
	// Intensities is the fault-intensity grid; it should start at 0 so each
	// curve is anchored at the unfaulted recovery rate.
	Intensities []float64
	// Trials is the number of independent collisions per grid point.
	Trials int
	// Seed drives all randomness. Per-trial scenarios derive their seeds
	// from (Seed, trial) alone — independent of fault class and intensity —
	// so every curve degrades the SAME collisions and differences between
	// points measure the fault, not scenario luck.
	Seed uint64
	// Workers bounds the fan-out (<= 0 selects all CPUs).
	Workers int
}

// DefaultFaultSweep returns the sweep used by cmd/choir-sim: two-user
// collisions at comfortable SNR, all five fault classes, intensities 0-0.8.
func DefaultFaultSweep() FaultSweepConfig {
	return FaultSweepConfig{
		Params:      lora.DefaultParams(),
		PayloadLen:  8,
		Users:       2,
		SNRDB:       25,
		Intensities: []float64{0, 0.1, 0.2, 0.4, 0.6, 0.8},
		Trials:      10,
		Seed:        1,
	}
}

// FaultSweep measures decode success versus fault intensity, one series per
// fault class. Trials fan out across the worker pool; results are identical
// for any worker count, and the zero-intensity points of every class decode
// the literal unfaulted trials. Once ctx fires no new trial starts and the
// context's error is returned instead of a partial figure.
func FaultSweep(ctx context.Context, cfg FaultSweepConfig) (*Figure, error) {
	if cfg.Params.SF == 0 {
		cfg.Params = lora.DefaultParams()
	}
	if cfg.PayloadLen <= 0 || cfg.Users <= 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("sim: fault sweep needs positive PayloadLen/Users/Trials, got %d/%d/%d",
			cfg.PayloadLen, cfg.Users, cfg.Trials)
	}
	if len(cfg.Intensities) == 0 {
		return nil, fmt.Errorf("sim: fault sweep with no intensities")
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = fault.Classes()
	}
	injs := make([]fault.Injector, 0, len(classes)*len(cfg.Intensities))
	for _, c := range classes {
		for _, r := range cfg.Intensities {
			inj, err := fault.New(c, r)
			if err != nil {
				return nil, err
			}
			injs = append(injs, inj)
		}
	}

	dpool, err := backend.NewPool("choir", cfg.Params)
	if err != nil {
		return nil, err
	}
	pool := exec.NewPool(cfg.Workers)

	// Flatten (grid cell × trial) so narrow sweeps still saturate workers.
	type cell struct{ recovered, total int }
	nCells := len(injs)
	results, err := exec.Map(ctx, pool, nCells*cfg.Trials, func(k int) cell {
		ci, trial := k/cfg.Trials, k%cfg.Trials
		// The scenario seed depends ONLY on the trial index: every grid
		// point corrupts the same collision set, and zero intensity
		// reproduces the unfaulted decode exactly (same scenario,
		// untouched samples).
		scSeed := exec.DeriveSeed(cfg.Seed, uint64(trial))
		sc := Scenario{
			Params:     cfg.Params,
			PayloadLen: cfg.PayloadLen,
			SNRsDB:     repeat(cfg.SNRDB, cfg.Users),
			Seed:       scSeed,
		}
		b := dpool.Get()
		defer dpool.Put(b)
		faultSeed := exec.DeriveSeed(cfg.Seed, 0xFA017, uint64(ci), uint64(trial))
		rec, tot := sc.DecodeFaultedWith(backend.Decoder(b), injs[ci], faultSeed)
		return cell{recovered: rec, total: tot}
	})
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "fault",
		Title:  "Decode success vs. fault intensity",
		XLabel: "fault intensity",
		YLabel: "fraction of payloads recovered",
	}
	for i, c := range classes {
		s := Series{Name: c.String()}
		for j, r := range cfg.Intensities {
			ci := i*len(cfg.Intensities) + j
			rec, tot := 0, 0
			for trial := 0; trial < cfg.Trials; trial++ {
				res := results[ci*cfg.Trials+trial]
				rec += res.recovered
				tot += res.total
			}
			s.X = append(s.X, r)
			s.Y = append(s.Y, float64(rec)/float64(tot))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// repeat returns a slice of n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
