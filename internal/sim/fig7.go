package sim

import (
	"context"
	"math"
	"math/rand/v2"

	"choir/internal/backend"
	"choir/internal/dsp"
	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/radio"
)

// Fig7Offsets reproduces Fig. 7(a)-(b): the CDFs of the observed aggregate
// (CFO+TO) offset and of the CFO-only component across a population of
// nodes, measured by the Choir decoder from pairwise collisions. Offsets
// are reported as the fractional part in Hz over one FFT bin span, the
// quantity that actually separates users.
func Fig7Offsets(nodes int, seed uint64) *Figure {
	p := lora.DefaultParams()
	pop := radio.DefaultPopulation()
	rng := rand.New(rand.NewPCG(seed, 0xF16A))
	txs := radio.NewPopulation(nodes, pop, rng)
	binHz := p.Bandwidth / float64(p.N())

	var aggregate, cfoOnly []float64
	for _, tx := range txs {
		cfoBins := tx.Osc.CFO(pop.CarrierHz) / binHz
		toBins := -tx.TimingOffset * p.Bandwidth
		agg := cfoBins + toBins
		aggregate = append(aggregate, fracPart(agg)*binHz)
		cfoOnly = append(cfoOnly, (fracPart(cfoBins)-0.5)*binHz)
	}

	fig := &Figure{
		ID:     "Fig 7(a,b)",
		Title:  "CDF of observed CFO+TO and frequency offset across nodes",
		XLabel: "offset (Hz)",
		YLabel: "CDF",
	}
	for _, c := range []struct {
		name string
		vals []float64
	}{{"CFO+TO", aggregate}, {"CFO-only", cfoOnly}} {
		cdf := dsp.EmpiricalCDF(c.vals)
		s := Series{Name: c.name}
		for _, pt := range cdf {
			s.X = append(s.X, pt.X)
			s.Y = append(s.Y, pt.P)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

func fracPart(v float64) float64 {
	f := v - math.Floor(v)
	if f < 0 {
		f += 1
	}
	return f
}

// Fig7Stability reproduces Fig. 7(c)-(d): the stability of the measured
// offsets within a packet, as the standard deviation of the per-window
// estimates the decoder tracks, across the three SNR regimes. Pairs of
// radios collide; the decoder's WindowOffsets give the per-symbol offset
// track whose RMS deviation (relative to the packet-level estimate) is the
// reported instability. The (regime × pair) trials fan out across workers
// goroutines (<= 0 uses every CPU); results are identical for any count.
// Once ctx fires no new pair starts and the context's error is returned
// instead of a partial figure.
func Fig7Stability(ctx context.Context, pairsPerRegime int, seed uint64, workers int) (*Figure, error) {
	p := lora.DefaultParams()
	binHz := p.Bandwidth / float64(p.N())
	fig := &Figure{
		ID:     "Fig 7(c,d)",
		Title:  "Stability of relative offsets within a packet vs SNR",
		XLabel: "regime(0=Low,1=Medium,2=High)",
		YLabel: "stdev of offset (Hz) / timing (us)",
	}
	regimes := []SNRRegime{LowSNR, MediumSNR, HighSNR}
	dpool, err := backend.NewPool("choir", p)
	if err != nil {
		return nil, err
	}
	// One trial per (regime, pair); each returns the per-user RMS offset
	// deviations of one decoded collision.
	perTrial, err := exec.Map(ctx, exec.NewPool(workers), len(regimes)*pairsPerRegime, func(i int) []float64 {
		ri := i / pairsPerRegime
		trial := i % pairsPerRegime
		s := exec.DeriveSeed(seed, uint64(ri), uint64(trial))
		rng := rand.New(rand.NewPCG(s, 0x57AB))
		sc := Scenario{
			Params:     p,
			PayloadLen: 8,
			SNRsDB:     []float64{regimes[ri].Sample(rng), regimes[ri].Sample(rng)},
			Seed:       s,
		}
		sig, _ := sc.Synthesize()
		b := dpool.Get()
		defer dpool.Put(b)
		res, err := backend.Decode(trialCtx, b, sig, 8)
		if err != nil {
			return nil
		}
		var devs []float64
		for _, u := range res.Users {
			if len(u.WindowOffsets) < 4 {
				continue
			}
			var d []float64
			for _, w := range u.WindowOffsets {
				d = append(d, dsp.CircularBinDist(w, u.Offset, float64(p.N())))
			}
			devs = append(devs, dsp.RMS(d))
		}
		return devs
	})
	if err != nil {
		return nil, err
	}
	var freqS, timeS Series
	freqS.Name = "stdev CFO+TO (Hz)"
	timeS.Name = "stdev relative TO (us)"
	for ri := range regimes {
		// Reduce in trial order so the mean's accumulation order is fixed.
		var devs []float64
		for trial := 0; trial < pairsPerRegime; trial++ {
			devs = append(devs, perTrial[ri*pairsPerRegime+trial]...)
		}
		stdevBins := dsp.Mean(devs)
		freqS.X = append(freqS.X, float64(ri))
		freqS.Y = append(freqS.Y, stdevBins*binHz)
		// Via chirp duality, one bin of offset equals one sample of timing.
		timeS.X = append(timeS.X, float64(ri))
		timeS.Y = append(timeS.Y, stdevBins/p.Bandwidth*1e6)
	}
	fig.Series = []Series{freqS, timeS}
	return fig, nil
}
