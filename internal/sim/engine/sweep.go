package engine

import (
	"context"
	"fmt"
	"io"

	"choir/internal/exec"
)

// SweepPoint is one density in a sweep: the node count it simulated and
// the resulting metrics.
type SweepPoint struct {
	Nodes   int
	Metrics *Metrics
}

// DensitySweep runs the city at each node count in densities, holding the
// rest of base fixed. Every point derives its own seed from its logical
// coordinates — exec.DeriveSeed(base.Seed, dimSweep, point index) — not
// from any loop-carried RNG state, so adding, removing, or reordering
// densities never changes another point's draws.
func DensitySweep(ctx context.Context, base Config, densities []int) ([]SweepPoint, error) {
	if len(densities) == 0 {
		return nil, fmt.Errorf("engine: density sweep with no node counts")
	}
	points := make([]SweepPoint, 0, len(densities))
	for pi, n := range densities {
		cfg := base
		cfg.Nodes = n
		cfg.Seed = exec.DeriveSeed(base.Seed, dimSweep, uint64(pi))
		m, err := Run(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("engine: density sweep point %d (%d nodes): %w", pi, n, err)
		}
		points = append(points, SweepPoint{Nodes: n, Metrics: m})
	}
	return points, nil
}

// FprintSweep writes the sweep as an aligned text table.
func FprintSweep(w io.Writer, points []SweepPoint) {
	fmt.Fprintf(w, "%10s %10s %10s %10s %12s %10s %12s %12s\n",
		"nodes", "arrivals", "delivered", "dropped", "goodput", "ratio", "airtime_s", "events")
	for _, p := range points {
		m := p.Metrics
		fmt.Fprintf(w, "%10d %10d %10d %10d %12.1f %10.4f %12.1f %12d\n",
			p.Nodes, m.Arrivals, m.Delivered, m.Dropped,
			m.GoodputBps(), m.DeliveryRatio(), m.AirtimeSeconds(), m.Events)
	}
}
