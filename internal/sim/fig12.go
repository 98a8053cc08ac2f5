package sim

import (
	"context"

	"choir/internal/mac"
)

// Fig12Config parameterizes the multi-antenna comparison.
type Fig12Config struct {
	Fig8     Fig8Config
	Users    int // concurrent sensors (5 in the paper)
	Antennas int // base-station antennas for the MIMO systems (3)
}

// DefaultFig12 mirrors the paper's setup.
func DefaultFig12() Fig12Config {
	return Fig12Config{Fig8: DefaultFig8(), Users: 5, Antennas: 3}
}

// Fig12MUMIMO reproduces Fig. 12: network throughput of five concurrent
// sensors under (1) single-antenna ALOHA, (2) single-antenna Oracle TDMA,
// (3) 3-antenna scheduled uplink MU-MIMO (zero-forcing inverts an
// antennas × users channel matrix, whose rank caps the separable streams at
// the antenna count), (4) single-antenna Choir, and (5) Choir run on all
// three antennas with per-user selection diversity. Cancellation propagates
// into the calibration and the MAC cell simulations.
func Fig12MUMIMO(ctx context.Context, cfg Fig12Config) (*Figure, error) {
	f8 := cfg.Fig8
	p := f8.Calibration.Params
	payloadLen := f8.Calibration.PayloadLen
	table, err := f8.choirTable(ctx, f8.Calibration.Regime)
	if err != nil {
		return nil, err
	}

	// Choir+MU-MIMO: the decoder runs independently per antenna and a user
	// is recovered if any antenna's run recovers it — selection diversity
	// over independent channel realizations.
	boosted := make([]float64, len(table))
	for i, pr := range table {
		boosted[i] = 1 - pow(1-pr, cfg.Antennas)
	}

	type system struct {
		name   string
		scheme mac.Scheme
		rx     mac.Receiver
	}
	systems := []system{
		{"ALOHA", mac.SchemeAloha, mac.AlohaReceiver{}},
		{"Oracle", mac.SchemeOracle, mac.AlohaReceiver{}},
		{"MU-MIMO", mac.SchemeOracle, mac.ModelReceiver{
			// Zero-forcing decodes every stream while concurrency <= A,
			// nothing beyond; the oracle scheduler feeds it A at a time.
			Success:       onesThenZero(cfg.Antennas, cfg.Users),
			MaxConcurrent: cfg.Antennas,
		}},
		{"Choir", mac.SchemeChoir, mac.ModelReceiver{Success: table}},
		{"Choir+MU-MIMO", mac.SchemeChoir, mac.ModelReceiver{Success: boosted}},
	}

	fig := &Figure{
		ID:     "Fig 12",
		Title:  "throughput vs MU-MIMO on a 3-antenna base station",
		XLabel: "system(0=ALOHA,1=Oracle,2=MU-MIMO,3=Choir,4=Choir+MU-MIMO)",
		YLabel: "throughput (bits/s)",
	}
	var s Series
	s.Name = "network"
	jobs := make([]mac.Job, len(systems))
	for si, sys := range systems {
		jobs[si] = mac.Job{Config: f8.macConfig(sys.scheme, cfg.Users, p, payloadLen), Receiver: sys.rx}
	}
	metrics, err := mac.RunMany(ctx, jobs, f8.Workers)
	if err != nil {
		return nil, err
	}
	for si, m := range metrics {
		s.X = append(s.X, float64(si))
		s.Y = append(s.Y, m.ThroughputBps())
	}
	fig.Series = []Series{s}
	return fig, nil
}

func onesThenZero(ones, total int) []float64 {
	t := make([]float64, total)
	for i := 0; i < ones && i < total; i++ {
		t[i] = 1
	}
	return t
}

func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// Headline aggregates the paper's headline claims from the figure sweeps:
// the Choir-vs-baseline gains at 10 users (Fig. 8d-f) and the range factor
// at 30-node teams (Fig. 9b).
type Headline struct {
	ThroughputGainVsAloha  float64
	ThroughputGainVsOracle float64
	LatencyReduction       float64
	TxReduction            float64
	RangeGain              float64
}

// ComputeHeadline runs the sweeps and extracts the headline ratios.
func ComputeHeadline(ctx context.Context, cfg Fig8Config) (*Headline, error) {
	tput, err := Fig8Users(ctx, cfg, Throughput)
	if err != nil {
		return nil, err
	}
	lat, err := Fig8Users(ctx, cfg, Latency)
	if err != nil {
		return nil, err
	}
	tx, err := Fig8Users(ctx, cfg, TxCount)
	if err != nil {
		return nil, err
	}
	last := len(tput.SeriesAt("Choir").Y) - 1 // 10 users
	h := &Headline{
		ThroughputGainVsAloha:  tput.GainAt("Choir", "ALOHA", last),
		ThroughputGainVsOracle: tput.GainAt("Choir", "Oracle", last),
		LatencyReduction:       lat.GainAt("ALOHA", "Choir", last),
		TxReduction:            tx.GainAt("ALOHA", "Choir", last),
	}
	r := Fig9Range(30)
	s := r.Series[0]
	h.RangeGain = s.Y[len(s.Y)-1] / s.Y[0]
	return h, nil
}
