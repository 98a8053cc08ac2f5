package sim

import (
	"context"

	"choir/internal/lora"
	"choir/internal/mac"
)

// Fig8Config parameterizes the density experiments.
type Fig8Config struct {
	// Slots simulated per MAC run.
	Slots int
	// ArrivalPerSlot is each node's packet-generation probability per slot
	// (periodic sensing traffic; the paper's clients report every 500 ms).
	ArrivalPerSlot float64
	// Calibration drives the Choir receiver's success table. Trials=0
	// replaces IQ-level calibration with the analytic model (fast sweeps).
	Calibration CalibrationConfig
	Seed        uint64
	// Workers bounds the concurrency of the sweep's MAC runs and of the
	// IQ-level calibration behind them (<= 0 uses every CPU, 1 runs
	// serially). Results are identical for any worker count.
	Workers int
}

// DefaultFig8 returns the configuration used by the benchmarks.
func DefaultFig8() Fig8Config {
	return Fig8Config{Slots: 4000, ArrivalPerSlot: 0.8, Calibration: DefaultCalibration(), Seed: 7}
}

// choirTable returns the Choir per-user success table for the experiment.
func (c Fig8Config) choirTable(ctx context.Context, regime SNRRegime) ([]float64, error) {
	if c.Calibration.Trials <= 0 {
		return AnalyticChoirTable(10, 0.95, 14), nil
	}
	cal := c.Calibration
	cal.Regime = regime
	cal.Workers = c.Workers
	return SuccessTable(ctx, cal)
}

// macConfig assembles the cell simulation for a scheme.
func (c Fig8Config) macConfig(scheme mac.Scheme, nodes int, p lora.Params, payloadLen int) mac.Config {
	arrival := c.ArrivalPerSlot
	if arrival <= 0 {
		arrival = 0.3
	}
	return mac.Config{
		Scheme:         scheme,
		Nodes:          nodes,
		Slots:          c.Slots,
		ArrivalPerSlot: arrival,
		Unslotted:      true, // LoRaWAN's ALOHA is unslotted (Sec. 3)
		// LoRaWAN end-devices back off over a bounded window; a modest cap
		// keeps ALOHA aggressive and collision-prone under load, as the
		// paper's ALOHA baseline behaves.
		MaxBackoffExp: 5,
		SlotSeconds:   p.AirTime(payloadLen) * 1.1, // 10 % guard
		PacketBits:    payloadLen * 8,
		Seed:          c.Seed,
	}
}

// Metric selects which of the three Fig. 8 panels to produce.
type Metric int

// The three per-scheme metrics of Fig. 8.
const (
	Throughput Metric = iota // bits/s, panels (a)/(d)
	Latency                  // seconds/packet, panels (b)/(e)
	TxCount                  // transmissions/packet, panels (c)/(f)
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case Throughput:
		return "throughput (bits/s)"
	case Latency:
		return "latency (s)"
	default:
		return "transmissions/packet"
	}
}

func metricOf(m *mac.Metrics, which Metric) float64 {
	switch which {
	case Throughput:
		return m.ThroughputBps()
	case Latency:
		return m.MeanLatency()
	default:
		return m.TxPerDelivered()
	}
}

// Fig8SNR reproduces Fig. 8(a)-(c): two concurrent users across the three
// SNR regimes under ALOHA, Oracle and Choir, for the selected metric. Rate
// adaptation picks the PHY per regime, so absolute throughput differs
// across regimes as in the paper. Cancellation propagates into both the
// IQ-level calibration and the MAC cell simulations.
func Fig8SNR(ctx context.Context, cfg Fig8Config, which Metric) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig 8(a-c)",
		Title:  "two users vs SNR regime: " + which.String(),
		XLabel: "regime(0=Low,1=Medium,2=High)",
		YLabel: which.String(),
	}
	schemes := []mac.Scheme{mac.SchemeAloha, mac.SchemeOracle, mac.SchemeChoir}
	series := make([]Series, len(schemes))
	for i, s := range schemes {
		series[i].Name = s.String()
	}
	regimes := []SNRRegime{LowSNR, MediumSNR, HighSNR}
	// Calibrate every regime's success table first (itself a parallel
	// Monte-Carlo), then submit the regime × scheme grid of cell
	// simulations to the MAC batch runner and collect in order.
	var jobs []mac.Job
	for _, regime := range regimes {
		// Representative SNR for rate adaptation: middle of the regime.
		p, _ := RateForSNR(regime.Mid())
		payloadLen := cfg.Calibration.PayloadLen
		table, err := cfg.choirTable(ctx, regime)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			var rx mac.Receiver = mac.AlohaReceiver{}
			if scheme == mac.SchemeChoir {
				rx = mac.ModelReceiver{Success: table}
			}
			jobs = append(jobs, mac.Job{Config: cfg.macConfig(scheme, 2, p, payloadLen), Receiver: rx})
		}
	}
	metrics, err := mac.RunMany(ctx, jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	for ri := range regimes {
		for si := range schemes {
			m := metrics[ri*len(schemes)+si]
			series[si].X = append(series[si].X, float64(ri))
			series[si].Y = append(series[si].Y, metricOf(m, which))
		}
	}
	fig.Series = series
	return fig, nil
}

// Fig8Users reproduces Fig. 8(d)-(f): the selected metric as concurrent
// users grow from 2 to 10, with an additional "Ideal" series for the
// throughput panel (k packets per slot, as plotted in the paper), with the
// same cancellation contract as Fig8SNR.
func Fig8Users(ctx context.Context, cfg Fig8Config, which Metric) (*Figure, error) {
	fig := &Figure{
		ID:     "Fig 8(d-f)",
		Title:  "scaling with concurrent users: " + which.String(),
		XLabel: "# users",
		YLabel: which.String(),
	}
	p := cfg.Calibration.Params
	payloadLen := cfg.Calibration.PayloadLen
	table, err := cfg.choirTable(ctx, cfg.Calibration.Regime)
	if err != nil {
		return nil, err
	}

	schemes := []mac.Scheme{mac.SchemeAloha, mac.SchemeOracle, mac.SchemeChoir}
	series := make([]Series, len(schemes))
	for i, s := range schemes {
		series[i].Name = s.String()
	}
	var ideal Series
	ideal.Name = "Ideal"
	slotSeconds := p.AirTime(payloadLen) * 1.1

	const minUsers, maxUsers = 2, 10
	var jobs []mac.Job
	for users := minUsers; users <= maxUsers; users++ {
		for _, scheme := range schemes {
			var rx mac.Receiver = mac.AlohaReceiver{}
			if scheme == mac.SchemeChoir {
				rx = mac.ModelReceiver{Success: table}
			}
			jobs = append(jobs, mac.Job{Config: cfg.macConfig(scheme, users, p, payloadLen), Receiver: rx})
		}
	}
	metrics, err := mac.RunMany(ctx, jobs, cfg.Workers)
	if err != nil {
		return nil, err
	}
	for users := minUsers; users <= maxUsers; users++ {
		for si := range schemes {
			m := metrics[(users-minUsers)*len(schemes)+si]
			series[si].X = append(series[si].X, float64(users))
			series[si].Y = append(series[si].Y, metricOf(m, which))
		}
		if which == Throughput {
			ideal.X = append(ideal.X, float64(users))
			ideal.Y = append(ideal.Y, float64(users*payloadLen*8)/slotSeconds)
		}
	}
	if which == Throughput {
		fig.Series = append(fig.Series, ideal)
	}
	fig.Series = append(fig.Series, series...)
	return fig, nil
}
