// Benchmarks regenerating every table and figure of the paper's evaluation
// (Sec. 9), plus ablations of the design choices called out in DESIGN.md.
//
// Each BenchmarkFigXX runs the corresponding experiment end to end and
// reports the figure's headline quantities as custom benchmark metrics
// (gains as "x", errors as fractions), so `go test -bench . -benchmem`
// regenerates the same rows/series the paper reports. Run with -v to see
// the full tables via b.Log.
package choir_test

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"choir"
	"choir/internal/channel"
	ichoir "choir/internal/choir"
	"choir/internal/lora"
	"choir/internal/sim"
)

// fastCfg keeps MAC sweeps cheap inside benchmarks; the cmd/choir-sim tool
// runs the full-size versions.
func fastCfg() choir.ExperimentConfig {
	cfg := choir.DefaultFig8()
	cfg.Slots = 1500
	cfg.Calibration.Trials = 0
	return cfg
}

func logFigure(b *testing.B, fig *choir.Figure) {
	b.Helper()
	var sb strings.Builder
	fig.Fprint(&sb)
	b.Log("\n" + sb.String())
}

func BenchmarkFig7OffsetCDF(b *testing.B) {
	var fig *choir.Figure
	for i := 0; i < b.N; i++ {
		fig = choir.Fig7Offsets(30, 1)
	}
	logFigure(b, fig)
	agg := fig.SeriesAt("CFO+TO")
	b.ReportMetric(agg.X[len(agg.X)-1]-agg.X[0], "offset-span-Hz")
}

func BenchmarkFig7OffsetStability(b *testing.B) {
	var fig *choir.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = choir.Fig7Stability(context.Background(), 2, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, fig)
	s := fig.SeriesAt("stdev CFO+TO (Hz)")
	b.ReportMetric(s.Y[1], "stdev-Hz@medSNR")
}

func BenchmarkFig8SNR(b *testing.B) {
	cfg := fastCfg()
	var fig *choir.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = choir.Fig8SNR(context.Background(), cfg, choir.MetricThroughput)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, fig)
	b.ReportMetric(fig.GainAt("Choir", "ALOHA", 1), "gain-vs-aloha-x")
}

func BenchmarkFig8Users(b *testing.B) {
	cfg := fastCfg()
	for _, metric := range []choir.ExperimentMetric{choir.MetricThroughput, choir.MetricLatency, choir.MetricTxCount} {
		b.Run(metric.String(), func(b *testing.B) {
			var fig *choir.Figure
			for i := 0; i < b.N; i++ {
				var err error
				fig, err = choir.Fig8Users(context.Background(), cfg, metric)
				if err != nil {
					b.Fatal(err)
				}
			}
			logFigure(b, fig)
			last := len(fig.SeriesAt("Choir").Y) - 1
			switch metric {
			case choir.MetricThroughput:
				b.ReportMetric(fig.GainAt("Choir", "ALOHA", last), "gain-vs-aloha-x")
				b.ReportMetric(fig.GainAt("Choir", "Oracle", last), "gain-vs-oracle-x")
			default:
				b.ReportMetric(fig.GainAt("ALOHA", "Choir", last), "reduction-x")
			}
		})
	}
}

func BenchmarkFig9Throughput(b *testing.B) {
	var fig *choir.Figure
	for i := 0; i < b.N; i++ {
		fig = choir.Fig9Throughput(-22, 30)
	}
	logFigure(b, fig)
	s := fig.Series[0]
	b.ReportMetric(s.Y[len(s.Y)-1], "bps@30")
}

func BenchmarkFig9Range(b *testing.B) {
	var fig *choir.Figure
	for i := 0; i < b.N; i++ {
		fig = choir.Fig9Range(30)
	}
	logFigure(b, fig)
	s := fig.Series[0]
	b.ReportMetric(s.Y[len(s.Y)-1]/s.Y[0], "range-gain-x")
	b.ReportMetric(s.Y[0], "single-range-m")
}

func BenchmarkFig10Resolution(b *testing.B) {
	dists := []float64{200, 600, 1000, 1400, 1800, 2200, 2600, 3000}
	var fig *choir.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = choir.Fig10Resolution(context.Background(), dists, 3, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, fig)
	tmp := fig.SeriesAt("temperature")
	b.ReportMetric(tmp.Y[len(tmp.Y)-1], "err@3km")
}

func BenchmarkFig11Grouping(b *testing.B) {
	var fig *choir.Figure
	var err error
	for i := 0; i < b.N; i++ {
		if fig, err = choir.Fig11Grouping(context.Background(), 6, 10, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, fig)
	t := fig.SeriesAt("temperature")
	b.ReportMetric(t.Y[0]/t.Y[2], "random-vs-center-x")
}

func BenchmarkFig11Throughput(b *testing.B) {
	cfg := fastCfg()
	var fig *choir.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = choir.Fig11Throughput(context.Background(), cfg, 10, 4, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, fig)
	s := fig.Series[0]
	b.ReportMetric(s.Y[2]/s.Y[0], "gain-vs-aloha-x")
	b.ReportMetric(s.Y[2]/s.Y[1], "gain-vs-oracle-x")
}

func BenchmarkFig12MUMIMO(b *testing.B) {
	cfg := choir.DefaultFig12()
	cfg.Fig8 = fastCfg()
	var fig *choir.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = choir.Fig12MUMIMO(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	logFigure(b, fig)
	y := fig.Series[0].Y
	b.ReportMetric(y[3]/y[2], "choir-vs-mumimo-x")
	b.ReportMetric(y[4]/y[3], "mimo-diversity-x")
}

func BenchmarkHeadline(b *testing.B) {
	cfg := fastCfg()
	var h *choir.HeadlineResult
	for i := 0; i < b.N; i++ {
		var err error
		h, err = choir.ComputeHeadline(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.ThroughputGainVsAloha, "tput-vs-aloha-x")
	b.ReportMetric(h.ThroughputGainVsOracle, "tput-vs-oracle-x")
	b.ReportMetric(h.LatencyReduction, "latency-x")
	b.ReportMetric(h.TxReduction, "tx-x")
	b.ReportMetric(h.RangeGain, "range-x")
}

// --- Ablations (DESIGN.md Sec. 5) ---

// decodeRate Monte-Carlos the decoder on k-user collisions and returns the
// per-payload recovery rate.
func decodeRate(cfg ichoir.Config, users, trials int, snr float64, seed uint64) float64 {
	recovered, total := 0, 0
	for t := 0; t < trials; t++ {
		s := seed + uint64(t)
		rng := rand.New(rand.NewPCG(s, 0xAB1A))
		snrs := make([]float64, users)
		for i := range snrs {
			snrs[i] = snr + rng.Float64()*5
		}
		sc := sim.Scenario{Params: cfg.LoRa, PayloadLen: 8, SNRsDB: snrs, Seed: s}
		sig, payloads := sc.Synthesize()
		dec := ichoir.MustNew(cfg)
		res, err := dec.Decode(context.Background(), sig, 8)
		total += len(payloads)
		if err != nil {
			continue
		}
		decoded := res.DecodedPayloads()
		used := make([]bool, len(decoded))
		for _, want := range payloads {
			for i, got := range decoded {
				if !used[i] && string(got) == string(want) {
					used[i] = true
					recovered++
					break
				}
			}
		}
	}
	return float64(recovered) / float64(total)
}

func BenchmarkAblationFineCFO(b *testing.B) {
	// Fine offset estimation (Sec. 5.1) on vs off, 4-user collisions.
	for _, fine := range []bool{true, false} {
		name := "fine=on"
		if !fine {
			name = "fine=off"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ichoir.DefaultConfig(lora.DefaultParams())
			cfg.FineSearch = fine
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = decodeRate(cfg, 4, 4, 10, 100)
			}
			b.ReportMetric(rate, "recovery-rate")
		})
	}
}

func BenchmarkAblationPhasedSIC(b *testing.B) {
	// Phased SIC (Sec. 5.2) under near-far: strong user at +25 dB over two
	// weak ones.
	for _, phases := range []int{0, 2} {
		b.Run(map[int]string{0: "sic=off", 2: "sic=2"}[phases], func(b *testing.B) {
			cfg := ichoir.DefaultConfig(lora.DefaultParams())
			cfg.SICPhases = phases
			var rate float64
			for i := 0; i < b.N; i++ {
				recovered, total := 0, 0
				for t := uint64(0); t < 4; t++ {
					sc := sim.Scenario{
						Params:     cfg.LoRa,
						PayloadLen: 8,
						SNRsDB:     []float64{40, 25, 25},
						Seed:       200 + t,
					}
					r, n := decodeScenario(cfg, sc)
					recovered += r
					total += n
				}
				rate = float64(recovered) / float64(total)
			}
			b.ReportMetric(rate, "recovery-rate")
		})
	}
}

func decodeScenario(cfg ichoir.Config, sc sim.Scenario) (int, int) {
	sig, payloads := sc.Synthesize()
	dec := ichoir.MustNew(cfg)
	res, err := dec.Decode(context.Background(), sig, sc.PayloadLen)
	if err != nil {
		return 0, len(payloads)
	}
	decoded := res.DecodedPayloads()
	used := make([]bool, len(decoded))
	recovered := 0
	for _, want := range payloads {
		for i, got := range decoded {
			if !used[i] && string(got) == string(want) {
				used[i] = true
				recovered++
				break
			}
		}
	}
	return recovered, len(payloads)
}

func BenchmarkAblationZeroPad(b *testing.B) {
	// Zero-padding factor of the peak FFT (paper uses 10x).
	for _, pad := range []int{4, 8, 10, 16} {
		b.Run(map[int]string{4: "pad=4", 8: "pad=8", 10: "pad=10", 16: "pad=16"}[pad], func(b *testing.B) {
			cfg := ichoir.DefaultConfig(lora.DefaultParams())
			cfg.Pad = pad
			var rate float64
			for i := 0; i < b.N; i++ {
				rate = decodeRate(cfg, 3, 4, 12, 300)
			}
			b.ReportMetric(rate, "recovery-rate")
		})
	}
}

func BenchmarkAblationPreambleAccum(b *testing.B) {
	// Coherent preamble accumulation window for below-noise detection
	// (Sec. 7.2): longer preambles detect deeper.
	for _, plen := range []int{4, 8, 16} {
		b.Run(map[int]string{4: "preamble=4", 8: "preamble=8", 16: "preamble=16"}[plen], func(b *testing.B) {
			p := lora.DefaultParams()
			p.PreambleLen = plen
			var detected float64
			for i := 0; i < b.N; i++ {
				hits, total := 0, 6
				for t := uint64(0); t < uint64(total); t++ {
					sc := sim.Scenario{Params: p, PayloadLen: 8, SNRsDB: teamSNRs(6, -16), Identical: true, Seed: 500 + t}
					sig, _ := sc.Synthesize()
					dec := ichoir.MustNew(ichoir.DefaultConfig(p))
					if _, err := dec.DetectTeam(sig); err == nil {
						hits++
					}
				}
				detected = float64(hits) / float64(total)
			}
			b.ReportMetric(detected, "detection-rate")
		})
	}
}

func BenchmarkAblationADCBits(b *testing.B) {
	// The paper notes (Sec. 5.2) that extremely weak transmitters are
	// limited by ADC resolution: a near-far collision whose weak user sits
	// around the quantizer's LSB is lost at coarse resolutions regardless
	// of SIC quality.
	for _, bits := range []int{4, 6, 8, 12} {
		b.Run(map[int]string{4: "adc=4", 6: "adc=6", 8: "adc=8", 12: "adc=12"}[bits], func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				recovered, total := 0, 0
				for t := uint64(0); t < 4; t++ {
					rate2, n2 := adcNearFarTrial(bits, 600+t)
					recovered += rate2
					total += n2
				}
				rate = float64(recovered) / float64(total)
			}
			b.ReportMetric(rate, "recovery-rate")
		})
	}
}

// adcNearFarTrial renders a +20 dB near-far collision through a bits-wide
// ADC with 12 dB of AGC headroom (outdoor receivers must leave headroom
// for bursts, so the signal occupies only the lower quarter of the
// quantizer range) and counts recovered payloads. With few bits the weak
// user falls below the effective LSB and is unrecoverable no matter how
// good the interference cancellation — the paper's Sec. 5.2 caveat.
func adcNearFarTrial(bits int, seed uint64) (recovered, total int) {
	p := lora.DefaultParams()
	sc := sim.Scenario{Params: p, PayloadLen: 8, SNRsDB: []float64{35, 15}, Seed: seed}
	sig, payloads := sc.Synthesize()
	scaled := append([]complex128(nil), sig...)
	var peak float64
	for _, v := range scaled {
		if m := real(v)*real(v) + imag(v)*imag(v); m > peak {
			peak = m
		}
	}
	if peak > 0 {
		norm := complex(0.25/math.Sqrt(peak), 0) // 12 dB AGC headroom
		for i := range scaled {
			scaled[i] *= norm
		}
	}
	channel.Quantize(scaled, bits, 1)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	res, err := dec.Decode(context.Background(), scaled, 8)
	if err != nil {
		return 0, len(payloads)
	}
	decoded := res.DecodedPayloads()
	used := make([]bool, len(decoded))
	for _, want := range payloads {
		for i, got := range decoded {
			if !used[i] && string(got) == string(want) {
				used[i] = true
				recovered++
				break
			}
		}
	}
	return recovered, len(payloads)
}

func teamSNRs(n int, snr float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = snr
	}
	return out
}

func BenchmarkEndToEndDeployment(b *testing.B) {
	// The whole pipeline — geometry, link-aware scheduling, IQ-level
	// collision and team decoding — in one run.
	var rep *choir.E2EReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = choir.EndToEnd(context.Background(), choir.DefaultE2E())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log(rep.String())
	b.ReportMetric(float64(rep.IndividualDelivered+rep.TeamsDelivered), "deliveries")
	b.ReportMetric(rep.MaxServedDistance, "max-served-m")
}

// --- Micro-benchmarks of the decoder hot path ---

// BenchmarkDecodeMetricsOnVsOff pins the observability layer's cost on the
// decoder hot path. The "off" run must report 0 allocs/op beyond the
// baseline decode — recording operations gate on one atomic load and spans
// are stack values — and the "on" run shows the full price of per-stage
// timing, which stays a small fraction of the decode itself.
func BenchmarkDecodeMetricsOnVsOff(b *testing.B) {
	sc := sim.Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: []float64{20, 15}, Seed: 9}
	sig, _ := sc.Synthesize()
	for _, on := range []bool{false, true} {
		name := "metrics=off"
		if on {
			name = "metrics=on"
		}
		b.Run(name, func(b *testing.B) {
			if on {
				choir.EnableMetrics()
			} else {
				choir.DisableMetrics()
			}
			defer choir.DisableMetrics()
			dec := ichoir.MustNew(ichoir.DefaultConfig(sc.Params))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(context.Background(), sig, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTeamDecode(b *testing.B) {
	sc := sim.Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: teamSNRs(10, -12), Identical: true, Seed: 11}
	sig, _ := sc.Synthesize()
	dec := ichoir.MustNew(ichoir.DefaultConfig(sc.Params))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeTeam(context.Background(), sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel trial-execution engine ---

// benchSuccessTable Monte-Carlos the IQ-level calibration grid uncached at
// a fixed worker count. The serial/parallel twins share one configuration,
// so their ratio is the engine's wall-clock speedup on this machine; the
// sim package's determinism tests assert the tables themselves are
// identical.
func benchSuccessTable(b *testing.B, workers int) {
	cfg := sim.DefaultCalibration()
	cfg.MaxUsers = 4
	cfg.Trials = 2
	cfg.Workers = workers
	b.ResetTimer()
	var table []float64
	var err error
	for i := 0; i < b.N; i++ {
		if table, err = sim.SuccessTableUncached(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(table[0], "success@1user")
}

func BenchmarkSuccessTableSerial(b *testing.B)   { benchSuccessTable(b, 1) }
func BenchmarkSuccessTableParallel(b *testing.B) { benchSuccessTable(b, 0) }

func BenchmarkStandardLoRaDemodulate(b *testing.B) {
	m := lora.MustModem(lora.DefaultParams())
	payload := []byte("benchmark")
	sig := m.Modulate(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Demodulate(sig, len(payload)); err != nil {
			b.Fatal(err)
		}
	}
}
