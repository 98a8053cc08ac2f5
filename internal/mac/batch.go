package mac

import (
	"context"
	"fmt"

	"choir/internal/exec"
)

// This file is the MAC layer's multi-run path: the figure sweeps of package
// sim run dozens of independent cell simulations (one per scheme × density
// × regime point), and RunMany fans them out across the trial-execution
// engine. Each simulation draws all of its randomness from its own
// Config.Seed, so the result slice is identical for any worker count.

// Job pairs one cell configuration with the receiver model that decodes
// its slots. Receivers run concurrently when workers > 1, so they must be
// safe for concurrent use; the built-in AlohaReceiver and ModelReceiver
// are stateless and qualify.
type Job struct {
	Config   Config
	Receiver Receiver
}

// RunMany executes the jobs across workers goroutines (<= 0 selects
// GOMAXPROCS, 1 runs serially) and returns their metrics in job order. All
// jobs are validated up front: if any fails, the first error in job order is
// returned before any simulation starts — a sweep of hundreds of cells must
// not burn minutes of work only to discard everything over a typo in job 0.
// Once ctx fires the fan-out stops handing out jobs, each in-flight
// simulation abandons its slot loop at the next poll, and the context's
// error is returned in place of partial results.
func RunMany(ctx context.Context, jobs []Job, workers int) ([]*Metrics, error) {
	for i, job := range jobs {
		if err := job.Config.Validate(); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		if job.Receiver == nil {
			return nil, fmt.Errorf("job %d: nil receiver", i)
		}
	}
	out := make([]*Metrics, len(jobs))
	errs := make([]error, len(jobs))
	if err := exec.NewPool(workers).ForEach(ctx, len(jobs), func(i int) {
		out[i], errs[i] = Run(ctx, jobs[i].Config, jobs[i].Receiver)
	}); err != nil {
		return nil, err
	}
	// Run re-validates; any residual error (scheme dispatch) still surfaces.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
