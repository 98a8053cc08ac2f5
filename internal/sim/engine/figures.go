package engine

import (
	"context"
	"fmt"

	"choir/internal/ctxutil"
	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/mac"
	"choir/internal/sensor"
	"choir/internal/sim"
)

// This file holds the paper's cell figures (Figs 8, 11b, 12 and the
// headline): a handful of clients around one base station, run on the same
// engine as the city sweeps. A figure cell is a Config with one gateway and
// a building-sized square, so every node resolves to the fastest rate and
// the whole population is a single (gateway, SF) contention group.

// Fig8Config parameterizes the density experiments.
type Fig8Config struct {
	// Slots simulated per cell.
	Slots int
	// ArrivalPerSlot is each node's packet-generation probability per slot
	// (periodic sensing traffic; the paper's clients report every 500 ms).
	ArrivalPerSlot float64
	// Calibration drives the Choir receiver's success table. Trials=0
	// replaces IQ-level calibration with the analytic model (fast sweeps).
	Calibration sim.CalibrationConfig
	Seed        uint64
}

// DefaultFig8 returns the configuration used by the benchmarks.
func DefaultFig8() Fig8Config {
	return Fig8Config{Slots: 4000, ArrivalPerSlot: 0.8, Calibration: sim.DefaultCalibration(), Seed: 7}
}

// choirTable returns the Choir per-user success table for the experiment:
// the analytic one at zero calibration trials, and an error from
// sim.SuccessTable at a negative count.
func (c Fig8Config) choirTable(ctx context.Context, regime sim.SNRRegime) ([]float64, error) {
	if c.Calibration.Trials == 0 {
		return sim.AnalyticChoirTable(10, 0.95, 14), nil
	}
	cal := c.Calibration
	cal.Regime = regime
	return sim.SuccessTable(ctx, cal)
}

// cell is one point of a figure: a scheme and its receiver over nodes
// clients, with the PHY whose airtime sets the slot length.
type cell struct {
	scheme mac.Scheme
	nodes  int
	rx     mac.SlotSuccess
	p      lora.Params
}

// baselines are the three MAC schemes every Sec. 8 comparison plots, in
// series order.
var baselines = []mac.Scheme{mac.SchemeAloha, mac.SchemeOracle, mac.SchemeChoir}

// baselineCells returns one cell per baseline scheme: the standard LoRaWAN
// receiver under ALOHA and Oracle, the table-driven one under Choir.
func baselineCells(nodes int, table []float64, p lora.Params) []cell {
	cells := make([]cell, len(baselines))
	for i, scheme := range baselines {
		cells[i] = cell{scheme: scheme, nodes: nodes, rx: mac.AlohaReceiver{}, p: p}
		if scheme == mac.SchemeChoir {
			cells[i].rx = mac.ModelReceiver{Success: table}
		}
	}
	return cells
}

// cellSideM is a figure cell's square side: every client sits within a few
// meters of the gateway, as in the paper's single-building testbed.
const cellSideM = 10

// runCells simulates the cells on one exec.Fan, a cell an index, and
// returns their metrics in order; it fails if any node of a cell is out of
// range. A failure reports the first failed cell alone: a bad setting the
// cells share fails every one of them the same way.
func (c Fig8Config) runCells(ctx context.Context, cells []cell) ([]*Metrics, error) {
	arrival := c.ArrivalPerSlot
	if arrival <= 0 {
		arrival = 0.3
	}
	payloadLen := c.Calibration.PayloadLen
	ctx = ctxutil.Background(ctx)
	out := make([]*Metrics, len(cells))
	errs := make([]error, len(cells))
	if new(exec.Fan).Run(cellJob{ctx, func(i int) {
		cl := cells[i]
		m, err := Run(ctx, Config{
			Scheme:         cl.scheme,
			Nodes:          cl.nodes,
			Gateways:       1,
			Slots:          c.Slots,
			ArrivalPerSlot: arrival,
			Unslotted:      true, // LoRaWAN's ALOHA is unslotted (Sec. 3)
			// LoRaWAN end-devices back off over a bounded window; a modest
			// cap keeps ALOHA aggressive and collision-prone under load, as
			// the paper's ALOHA baseline behaves.
			MaxBackoffExp: 5,
			SideM:         cellSideM,
			PayloadLen:    payloadLen,
			SlotSeconds:   cl.p.AirTime(payloadLen) * 1.1, // 10 % guard
			Receiver:      cl.rx,
			Seed:          c.Seed,
		})
		if err == nil && m.Unreachable != 0 {
			err = fmt.Errorf("engine: %d of %d nodes out of range in a %d m cell", m.Unreachable, cl.nodes, cellSideM)
		}
		out[i], errs[i] = m, err
	}}, len(cells)) {
		return nil, fmt.Errorf("engine: figure cells canceled: %w", ctx.Err())
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%w (figure cell %d of %d)", err, i, len(cells))
		}
	}
	return out, nil
}

// cellJob is runCells' exec.Job: run on every index, ctx polled on the
// calling goroutine between cells.
type cellJob struct {
	ctx context.Context
	run func(i int)
}

func (cellJob) Start(int)      {}
func (j cellJob) Run(_, i int) { j.run(i) }
func (j cellJob) Stop() bool   { return j.ctx.Err() != nil }

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

func metricOf(m *Metrics, which Metric) float64 {
	switch which {
	case Throughput:
		return m.GoodputBps()
	case Latency:
		return m.MeanLatencySeconds()
	default:
		return m.TxPerDelivered()
	}
}

// baselineSeries returns one empty named series per baseline scheme.
func baselineSeries() []sim.Series {
	series := make([]sim.Series, len(baselines))
	for i, s := range baselines {
		series[i].Name = s.String()
	}
	return series
}

// Fig8SNR reproduces Fig. 8(a)-(c): two concurrent users across the three
// SNR regimes under ALOHA, Oracle and Choir, for the selected metric. Rate
// adaptation picks the PHY per regime, so absolute throughput differs
// across regimes as in the paper. Cancellation propagates into both the
// IQ-level calibration and the cell simulations.
func Fig8SNR(ctx context.Context, cfg Fig8Config, which Metric) (*sim.Figure, error) {
	fig := &sim.Figure{
		ID:     "Fig 8(a-c)",
		Title:  "two users vs SNR regime: " + which.String(),
		XLabel: "regime(0=Low,1=Medium,2=High)",
		YLabel: which.String(),
	}
	regimes := []sim.SNRRegime{sim.LowSNR, sim.MediumSNR, sim.HighSNR}
	// Calibrate every regime's success table first (itself a parallel
	// Monte-Carlo), then run the regime × scheme grid of cells.
	var cells []cell
	for _, regime := range regimes {
		// Representative SNR for rate adaptation: middle of the regime.
		p, _ := sim.RateForSNR(regime.Mid())
		table, err := cfg.choirTable(ctx, regime)
		if err != nil {
			return nil, err
		}
		cells = append(cells, baselineCells(2, table, p)...)
	}
	metrics, err := cfg.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	series := baselineSeries()
	for ri := range regimes {
		for si := range series {
			series[si].X = append(series[si].X, float64(ri))
			series[si].Y = append(series[si].Y, metricOf(metrics[ri*len(series)+si], which))
		}
	}
	fig.Series = series
	return fig, nil
}

// The user counts Fig. 8(d)-(f) sweeps.
const minUsers, maxUsers = 2, 10

// runFig8Users simulates the Fig. 8(d)-(f) grid once — every baseline at
// every user count, users-major — for fig8UsersFigure to plot per metric.
func runFig8Users(ctx context.Context, cfg Fig8Config) ([]*Metrics, error) {
	table, err := cfg.choirTable(ctx, cfg.Calibration.Regime)
	if err != nil {
		return nil, err
	}
	var cells []cell
	for users := minUsers; users <= maxUsers; users++ {
		cells = append(cells, baselineCells(users, table, cfg.Calibration.Params)...)
	}
	return cfg.runCells(ctx, cells)
}

// fig8UsersFigure plots one metric of a runFig8Users grid.
func fig8UsersFigure(cfg Fig8Config, metrics []*Metrics, which Metric) *sim.Figure {
	fig := &sim.Figure{
		ID:     "Fig 8(d-f)",
		Title:  "scaling with concurrent users: " + which.String(),
		XLabel: "# users",
		YLabel: which.String(),
	}
	payloadLen := cfg.Calibration.PayloadLen
	slotSeconds := cfg.Calibration.Params.AirTime(payloadLen) * 1.1
	series := baselineSeries()
	ideal := sim.Series{Name: "Ideal"}
	for users := minUsers; users <= maxUsers; users++ {
		for si := range series {
			m := metrics[(users-minUsers)*len(series)+si]
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
	return fig
}

// Fig8Users reproduces Fig. 8(d)-(f): the selected metric as concurrent
// users grow from 2 to 10, with an additional "Ideal" series for the
// throughput panel (k packets per slot, as plotted in the paper), with the
// same cancellation contract as Fig8SNR.
func Fig8Users(ctx context.Context, cfg Fig8Config, which Metric) (*sim.Figure, error) {
	metrics, err := runFig8Users(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return fig8UsersFigure(cfg, metrics, which), nil
}

// Fig11Throughput reproduces Fig. 11(b): end-to-end network throughput for
// a mixed population — nearNodes within decode range plus farTeams teams of
// teamSize sensors each beyond it. Under the baselines the far sensors
// contribute nothing (their packets never decode); Choir both disentangles
// the near collisions and schedules beacon slots in which each far team's
// shared MSB chunk is recovered. Cancellation propagates into the
// calibration and the cell simulations.
func Fig11Throughput(ctx context.Context, cfg Fig8Config, nearNodes, farTeams, teamSize int) (*sim.Figure, error) {
	p := cfg.Calibration.Params
	slotSeconds := p.AirTime(cfg.Calibration.PayloadLen) * 1.1
	fig := &sim.Figure{
		ID:     "Fig 11(b)",
		Title:  "end-to-end throughput with near and far sensors",
		XLabel: "scheme(0=ALOHA,1=Oracle,2=Choir)",
		YLabel: "throughput (bits/s)",
	}
	table, err := cfg.choirTable(ctx, cfg.Calibration.Regime)
	if err != nil {
		return nil, err
	}
	metrics, err := cfg.runCells(ctx, baselineCells(nearNodes, table, p))
	if err != nil {
		return nil, err
	}
	s := sim.Series{Name: "network"}
	for si, scheme := range baselines {
		tput := metrics[si].GoodputBps()
		if scheme == mac.SchemeChoir {
			// One beacon slot in beaconPeriod is spent collecting each far
			// team's reading; the recovered shared-MSB chunk carries
			// sensor.Bits-worth of coarse data per member reading cycle.
			const beaconPeriod = 16
			perTeamBits := float64(sensor.Bits * teamSize) // readings conveyed per team slot
			tput = tput*(1-float64(farTeams)/beaconPeriod) +
				perTeamBits*float64(farTeams)/(beaconPeriod*slotSeconds)
		}
		s.X = append(s.X, float64(si))
		s.Y = append(s.Y, tput)
	}
	fig.Series = []sim.Series{s}
	return fig, nil
}

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
// into the calibration and the cell simulations.
func Fig12MUMIMO(ctx context.Context, cfg Fig12Config) (*sim.Figure, error) {
	f8 := cfg.Fig8
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

	p := f8.Calibration.Params
	cells := []cell{
		{mac.SchemeAloha, cfg.Users, mac.AlohaReceiver{}, p},
		{mac.SchemeOracle, cfg.Users, mac.AlohaReceiver{}, p},
		// MU-MIMO: zero-forcing decodes every stream while concurrency <= A,
		// nothing beyond; the oracle scheduler feeds it A at a time.
		{mac.SchemeOracle, cfg.Users, mac.ModelReceiver{
			Success:       onesThenZero(cfg.Antennas, cfg.Users),
			MaxConcurrent: cfg.Antennas,
		}, p},
		{mac.SchemeChoir, cfg.Users, mac.ModelReceiver{Success: table}, p},
		{mac.SchemeChoir, cfg.Users, mac.ModelReceiver{Success: boosted}, p},
	}

	fig := &sim.Figure{
		ID:     "Fig 12",
		Title:  "throughput vs MU-MIMO on a 3-antenna base station",
		XLabel: "system(0=ALOHA,1=Oracle,2=MU-MIMO,3=Choir,4=Choir+MU-MIMO)",
		YLabel: "throughput (bits/s)",
	}
	metrics, err := f8.runCells(ctx, cells)
	if err != nil {
		return nil, err
	}
	s := sim.Series{Name: "network"}
	for si, m := range metrics {
		s.X = append(s.X, float64(si))
		s.Y = append(s.Y, m.GoodputBps())
	}
	fig.Series = []sim.Series{s}
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

// ComputeHeadline runs the Fig. 8(d)-(f) sweep once and extracts the
// headline ratios from its three panels.
func ComputeHeadline(ctx context.Context, cfg Fig8Config) (*Headline, error) {
	metrics, err := runFig8Users(ctx, cfg)
	if err != nil {
		return nil, err
	}
	tput := fig8UsersFigure(cfg, metrics, Throughput)
	lat := fig8UsersFigure(cfg, metrics, Latency)
	tx := fig8UsersFigure(cfg, metrics, TxCount)
	last := len(tput.SeriesAt("Choir").Y) - 1 // 10 users
	h := &Headline{
		ThroughputGainVsAloha:  tput.GainAt("Choir", "ALOHA", last),
		ThroughputGainVsOracle: tput.GainAt("Choir", "Oracle", last),
		LatencyReduction:       lat.GainAt("ALOHA", "Choir", last),
		TxReduction:            tx.GainAt("ALOHA", "Choir", last),
	}
	r := sim.Fig9Range(30)
	s := r.Series[0]
	h.RangeGain = s.Y[len(s.Y)-1] / s.Y[0]
	return h, nil
}
