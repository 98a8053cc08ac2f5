package sim

import (
	"context"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"choir/internal/choir"
	"choir/internal/lora"
)

// must unwraps a (value, error) pair from an experiment entry point whose
// error can only be a fired context — the tests pass Background.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestRateForSNRMonotone(t *testing.T) {
	prev := 0.0
	for _, snr := range []float64{-25, -15, -9, -5, 0, 10} {
		p, _ := RateForSNR(snr)
		if r := p.BitRate(); r < prev {
			t.Errorf("rate decreased with SNR: %g bps at %g dB (prev %g)", r, snr, prev)
		} else {
			prev = r
		}
	}
	if _, ok := RateForSNR(-30); ok {
		t.Error("SNR -30 dB reported decodable")
	}
	if p, ok := RateForSNR(25); !ok || p.SF != lora.SF7 {
		t.Errorf("high SNR rate = %v ok=%v, want SF7", p.SF, ok)
	}
}

// TestSFForSNRMatchesRate pins the rate ladder's three faces to one
// another and to the thresholds: at each threshold and up to 4 ulps either
// side, and on a 0.01 dB sweep, SFForSNR is the SF RateForSNR reports and
// the fastest one whose threshold (plus the 1 dB margin) the SNR clears,
// and RateForSNR's parameters are ParamsForSF's — the defaults but for the
// SF and the code rate, 4/6 up to SF8 and 4/8 above.
func TestSFForSNRMatchesRate(t *testing.T) {
	check := func(snr float64) {
		t.Helper()
		sf, ok := SFForSNR(snr)
		p, okp := RateForSNR(snr)
		if p.SF != sf || okp != ok || p != ParamsForSF(sf) {
			t.Fatalf("snr %v: SFForSNR = %v, %v but RateForSNR = %+v, %v", snr, sf, ok, p, okp)
		}
		want, wantOK := lora.SF12, false
		for s := lora.SF12; s >= lora.SF7; s-- {
			if snr >= DemodThresholdDB(s)+1 {
				want, wantOK = s, true
			}
		}
		if sf != want || ok != wantOK {
			t.Fatalf("snr %v: SFForSNR = %v, %v, want %v, %v", snr, sf, ok, want, wantOK)
		}
	}
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		thr := DemodThresholdDB(sf) + 1
		lo, hi := thr, thr
		check(thr)
		for k := 0; k < 4; k++ {
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
			check(lo)
			check(hi)
		}
		if got, ok := SFForSNR(thr); got != sf || !ok {
			t.Errorf("at its own threshold %v dB: %v, %v, want %v", thr, got, ok, sf)
		}
		if got, ok := SFForSNR(lo); got == sf && ok {
			t.Errorf("4 ulps under %v's threshold still picks it", sf)
		}
		want := lora.DefaultParams()
		want.SF, want.CR = sf, lora.CR48
		if sf <= lora.SF8 {
			want.CR = lora.CR46
		}
		if got := ParamsForSF(sf); got != want {
			t.Errorf("ParamsForSF(%v) = %+v, want %+v", sf, got, want)
		}
	}
	for k := 0; k <= 4000; k++ {
		check(-30 + float64(k)*0.01)
	}
}

func TestDemodThresholdMatchesSpreadGain(t *testing.T) {
	// Each SF step buys 2.5 dB.
	for sf := lora.SF7; sf < lora.SF12; sf++ {
		if d := DemodThresholdDB(sf) - DemodThresholdDB(sf+1); math.Abs(d-2.5) > 1e-9 {
			t.Errorf("threshold step %v→%v = %g dB", sf, sf+1, d)
		}
	}
}

func TestScenarioSynthesizeShape(t *testing.T) {
	sc := Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: []float64{20, 15}, Seed: 1}
	sig, payloads := sc.Synthesize()
	if len(payloads) != 2 {
		t.Fatalf("%d payloads", len(payloads))
	}
	if len(sig) < sc.Params.FrameSamples(8) {
		t.Fatalf("signal %d samples < frame", len(sig))
	}
	if string(payloads[0]) == string(payloads[1]) {
		t.Error("independent payloads identical")
	}
	idt := sc
	idt.Identical = true
	_, same := idt.Synthesize()
	if string(same[0]) != string(same[1]) {
		t.Error("identical mode produced different payloads")
	}
}

func TestDecodeWithChoirRecoversHighSNRPair(t *testing.T) {
	sc := Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: []float64{25, 22}, Seed: 3}
	r, n := sc.DecodeWith(choir.MustNew(choir.DefaultConfig(sc.Params)))
	if n != 2 || r != 2 {
		t.Errorf("recovered %d/%d", r, n)
	}
}

func TestSuccessTableReasonable(t *testing.T) {
	cfg := DefaultCalibration()
	cfg.MaxUsers = 3
	cfg.Trials = 3
	table := must(SuccessTable(context.Background(), cfg))
	if len(table) != 3 {
		t.Fatalf("table len %d", len(table))
	}
	if table[0] < 0.9 {
		t.Errorf("single-user success %.2f < 0.9", table[0])
	}
	for i, p := range table {
		if p < 0 || p > 1 {
			t.Errorf("table[%d] = %g outside [0,1]", i, p)
		}
	}
	// Memoized: second call must return the identical slice.
	again := must(SuccessTable(context.Background(), cfg))
	if &again[0] != &table[0] {
		t.Error("success table not memoized")
	}
}

func TestAnalyticChoirTableShape(t *testing.T) {
	table := AnalyticChoirTable(10, 0.95, 14)
	if len(table) != 10 {
		t.Fatalf("len %d", len(table))
	}
	for i := 1; i < len(table); i++ {
		if table[i] > table[i-1] {
			t.Errorf("success increased with concurrency at %d", i)
		}
	}
	if table[0] != 0.95 {
		t.Errorf("base %g", table[0])
	}
}

func TestFig7OffsetsCDF(t *testing.T) {
	fig := Fig7Offsets(30, 1)
	if len(fig.Series) != 2 {
		t.Fatalf("%d series", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 30 {
			t.Errorf("%s has %d points", s.Name, len(s.X))
		}
		// CDF must be non-decreasing and end at 1.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s CDF decreases at %d", s.Name, i)
			}
		}
		if s.Y[len(s.Y)-1] != 1 {
			t.Errorf("%s CDF ends at %g", s.Name, s.Y[len(s.Y)-1])
		}
	}
	// Offsets must span a decent fraction of the bin (diversity claim).
	agg := fig.SeriesAt("CFO+TO")
	span := agg.X[len(agg.X)-1] - agg.X[0]
	binHz := lora.DefaultParams().Bandwidth / float64(lora.DefaultParams().N())
	if span < binHz/4 {
		t.Errorf("offset span %.1f Hz too narrow vs bin %.1f Hz", span, binHz)
	}
}

func TestFig7StabilityImprovesWithSNR(t *testing.T) {
	fig := must(Fig7Stability(context.Background(), 2, 5, 0))
	fs := fig.SeriesAt("stdev CFO+TO (Hz)")
	if fs == nil || len(fs.Y) != 3 {
		t.Fatalf("bad stability series: %+v", fig)
	}
	if fs.Y[2] > fs.Y[0] {
		t.Errorf("stability at high SNR (%.3g Hz) worse than at low (%.3g Hz)", fs.Y[2], fs.Y[0])
	}
	// Offsets must be stable to a small fraction of a bin even at low SNR.
	binHz := lora.DefaultParams().Bandwidth / float64(lora.DefaultParams().N())
	if fs.Y[0] > binHz/4 {
		t.Errorf("low-SNR instability %.1f Hz exceeds a quarter bin (%.1f Hz)", fs.Y[0], binHz/4)
	}
}

func TestFig9ThroughputGrowsWithTeam(t *testing.T) {
	fig := Fig9Throughput(-22, 30)
	s := fig.Series[0]
	if s.Y[0] != 0 {
		t.Errorf("single out-of-range client got rate %g", s.Y[0])
	}
	if s.Y[29] <= 0 {
		t.Error("30-node team still undecodable")
	}
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] < s.Y[i-1] {
			t.Errorf("team rate decreased at %d", i+1)
		}
	}
}

func TestFig9RangeMatchesPaperShape(t *testing.T) {
	fig := Fig9Range(30)
	s := fig.Series[0]
	single := s.Y[0]
	team30 := s.Y[29]
	// Paper: ~1 km single client, 2.65 km with 30-node teams (2.65x).
	if single < 700 || single > 1500 {
		t.Errorf("single-client range %.0f m outside [700, 1500]", single)
	}
	gain := team30 / single
	if math.Abs(gain-2.65) > 0.35 {
		t.Errorf("30-team range gain %.2f, want ~2.65", gain)
	}
}

func TestValidateTeamDecodeAtOperatingPoint(t *testing.T) {
	// A 12-member team whose members sit below the single-user preamble
	// detection point must decode at IQ level.
	const teamSize, perMemberSNR, seed = 12, -17.0, 3
	p := lora.DefaultParams()
	rng := rand.New(rand.NewPCG(seed, 0xF19))
	snrs := make([]float64, teamSize)
	for i := range snrs {
		snrs[i] = perMemberSNR + rng.NormFloat64()*0.5
	}
	sc := Scenario{Params: p, PayloadLen: 8, SNRsDB: snrs, Identical: true, Seed: seed}
	sig, payloads := sc.Synthesize()
	res, err := choir.MustNew(choir.DefaultConfig(p)).DecodeTeam(context.Background(), sig, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || string(res.Payload) != string(payloads[0]) {
		t.Errorf("12-member team at -17 dB failed IQ-level decode: %v", res.Err)
	}
}

func TestFig10ResolutionDegradesWithDistance(t *testing.T) {
	fig := must(Fig10Resolution(context.Background(), []float64{200, 800, 1600, 2400}, 3, 1, 0))
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] <= s.Y[0] {
			t.Errorf("%s: error at 2.4 km (%.4f) not above error at 200 m (%.4f)", s.Name, s.Y[len(s.Y)-1], s.Y[0])
		}
		for _, y := range s.Y {
			if y < 0 || y > 0.5 {
				t.Errorf("%s: error %.3f implausible", s.Name, y)
			}
		}
	}
}

func TestFig11GroupingOrder(t *testing.T) {
	fig := must(Fig11Grouping(context.Background(), 6, 10, 2, 0))
	for _, s := range fig.Series {
		random, center := s.Y[0], s.Y[2]
		if center >= random {
			t.Errorf("%s: center-distance %.4f not below random %.4f", s.Name, center, random)
		}
	}
	// Humidity errors exceed temperature errors under every strategy.
	hum := fig.SeriesAt("humidity")
	tmp := fig.SeriesAt("temperature")
	for i := range hum.Y {
		if hum.Y[i] <= tmp.Y[i] {
			t.Errorf("strategy %d: humidity %.4f <= temperature %.4f", i, hum.Y[i], tmp.Y[i])
		}
	}
}

func TestFigureFprintAndGainAt(t *testing.T) {
	fig := &Figure{
		ID: "T", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{5, 5}},
		},
	}
	var sb strings.Builder
	fig.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "T: test") || !strings.Contains(out, "a\tb") {
		t.Errorf("Fprint output:\n%s", out)
	}
	if g := fig.GainAt("a", "b", 1); g != 4 {
		t.Errorf("GainAt = %g", g)
	}
	if g := fig.GainAt("a", "zz", 0); g != 0 {
		t.Errorf("missing series gain = %g", g)
	}
}

func TestRequiredTeamSize(t *testing.T) {
	if u := RequiredTeamSize(100, 30); u != 1 {
		t.Errorf("100 m needs team of %d", u)
	}
	far := RequiredTeamSize(2500, 30)
	if far < 10 {
		t.Errorf("2.5 km needs only %d members", far)
	}
	near := RequiredTeamSize(1200, 30)
	if near >= far {
		t.Errorf("team size not monotone: %d at 1.2 km vs %d at 2.5 km", near, far)
	}
}

func TestSNRRegimeSampling(t *testing.T) {
	rngCheck := func(r SNRRegime, lo, hi float64) {
		for i := uint64(0); i < 50; i++ {
			v := r.Sample(randNew(i))
			if v < lo || v > hi {
				t.Errorf("%v sample %g outside [%g, %g]", r, v, lo, hi)
			}
		}
	}
	rngCheck(LowSNR, -15, -5)
	rngCheck(MediumSNR, -5, 10)
	rngCheck(HighSNR, 10, 25)
	if LowSNR.Mid() != -10 || MediumSNR.Mid() != 2.5 || HighSNR.Mid() != 17.5 {
		t.Error("regime midpoints")
	}
	if LowSNR.String() != "Low" || MediumSNR.String() != "Medium" || HighSNR.String() != "High" {
		t.Error("regime strings")
	}
}

func randNew(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 1)) }
