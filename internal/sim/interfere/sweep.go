package interfere

import (
	"context"
	"fmt"
	"io"

	"choir/internal/exec"
	"choir/internal/mac"
	"choir/internal/sim"
	"choir/internal/sim/engine"
)

// dimSweep tags the per-point seed derivation for the interference sweep
// (distinct from the engine's own sweep tag only by convention — these are
// whole-run seeds, so aliasing across harnesses would be harmless).
const dimSweep = 11

// choirMaxConcurrent sizes the Choir variant's analytic decode table: the
// paper's receiver resolves up to this many concurrent same-SF frames.
const choirMaxConcurrent = 30

// Variant is one MAC-plus-adaptation configuration in the comparison
// matrix: Choir's collision decoding under its usual fastest-rate ADR, and
// plain ALOHA under each of the four ADR policies (LoRaSim experiments 0–5
// collapsed onto this engine's slotted model).
type Variant struct {
	// Name labels the variant in tables ("choir", "adr-snr", ...).
	Name   string
	Scheme mac.Scheme
	ADR    engine.ADRPolicy
}

// Variants returns the comparison matrix, in table order.
func Variants() []Variant {
	v := []Variant{{Name: "choir", Scheme: mac.SchemeChoir, ADR: engine.ADRFastestSNR}}
	for _, p := range engine.ADRPolicies() {
		v = append(v, Variant{Name: "adr-" + p.String(), Scheme: mac.SchemeAloha, ADR: p})
	}
	return v
}

// receiverFor builds a variant's slot receiver, capture-wrapped: Choir gets
// the analytic multi-frame decode table, ALOHA the classic
// single-transmitter receiver.
func receiverFor(v Variant, marginDB float64) mac.SlotSuccess {
	if v.Scheme == mac.SchemeChoir {
		return New(mac.ModelReceiver{
			Success:       sim.AnalyticChoirTable(choirMaxConcurrent, 0.95, 14),
			MaxConcurrent: choirMaxConcurrent,
		}, marginDB)
	}
	return New(mac.AlohaReceiver{}, marginDB)
}

// SweepConfig parameterizes the goodput-vs-density comparison.
type SweepConfig struct {
	// Base is the engine configuration template. Nodes, Scheme, ADR,
	// Receiver, and Seed are overridden per point and variant; everything
	// else (gateways, slots, arrival rate, foreign networks, ...) is held
	// fixed across the whole matrix.
	Base engine.Config
	// Densities is the home-network node counts to sweep.
	Densities []int
	// MarginDB is the capture margin handed to every variant's
	// CaptureModel (<= 0 disables capture and cross-SF leakage).
	MarginDB float64
}

// PointResult is one density: the node count and each variant's metrics,
// indexed like Variants().
type PointResult struct {
	Nodes   int
	Metrics []*engine.Metrics
}

// Sweep is a completed comparison matrix.
type Sweep struct {
	Variants []Variant
	Points   []PointResult
}

// RunSweep runs the full variants × densities matrix. Every variant at one
// density point shares the same derived seed — exec.DeriveSeed(Base.Seed,
// dimSweep, point index) — so the five variants face identical foreign
// placements and traffic realizations and differ only in MAC and
// adaptation: a paired comparison, not five independent experiments. The
// result is a pure function of SweepConfig minus Driver, which is what lets
// CI diff the rendered table against a committed golden.
func RunSweep(ctx context.Context, cfg SweepConfig) (*Sweep, error) {
	if len(cfg.Densities) == 0 {
		return nil, fmt.Errorf("interfere: sweep with no densities")
	}
	vs := Variants()
	s := &Sweep{Variants: vs}
	for pi, n := range cfg.Densities {
		pr := PointResult{Nodes: n}
		seed := exec.DeriveSeed(cfg.Base.Seed, dimSweep, uint64(pi))
		for _, v := range vs {
			rc := cfg.Base
			rc.Nodes = n
			rc.Scheme = v.Scheme
			rc.ADR = v.ADR
			rc.Receiver = receiverFor(v, cfg.MarginDB)
			rc.Seed = seed
			m, err := engine.Run(ctx, rc)
			if err != nil {
				return nil, fmt.Errorf("interfere: point %d (%d nodes) variant %s: %w", pi, n, v.Name, err)
			}
			pr.Metrics = append(pr.Metrics, m)
		}
		s.Points = append(s.Points, pr)
	}
	return s, nil
}

// Fprint writes the sweep as an aligned text table, one row per
// (density, variant). Every column is derived from integer metric totals,
// so the rendering is as deterministic as the run itself.
func Fprint(w io.Writer, s *Sweep) {
	fmt.Fprintf(w, "%8s %-12s %10s %10s %8s %12s %10s %11s %12s\n",
		"nodes", "variant", "arrivals", "delivered", "ratio", "goodput_bps", "foreign_tx", "energy_j", "unreachable")
	for _, p := range s.Points {
		for vi, v := range s.Variants {
			m := p.Metrics[vi]
			fmt.Fprintf(w, "%8d %-12s %10d %10d %8.4f %12.1f %10d %11.3f %12d\n",
				p.Nodes, v.Name, m.Arrivals, m.Delivered, m.DeliveryRatio(),
				m.GoodputBps(), m.ForeignTx, float64(m.TxEnergyNJ)/1e9, m.Unreachable)
		}
	}
}
