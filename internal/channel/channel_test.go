package channel

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"choir/internal/dsp"
)

// Fixtures: an urban 900 MHz path-loss model consistent with the paper's
// ~1 km single-client range at 14 dBm, and a 125 kHz receiver front end.
var (
	urbanPathLoss = PathLossModel{RefLossDB: 31.5, RefDistance: 1, Exponent: 3.2, ShadowSigmaDB: 6}
	receiver      = Config{NoiseFloorDBm: -117, ADCBits: 12, ADCFullScale: 4}
)

func TestPathLossMonotone(t *testing.T) {
	m := urbanPathLoss
	prev := -math.Inf(1)
	for _, d := range []float64{1, 10, 100, 1000, 3000} {
		loss := m.LossDB(d, nil)
		if loss <= prev {
			t.Errorf("loss at %g m (%g dB) not greater than at shorter distance (%g dB)", d, loss, prev)
		}
		prev = loss
	}
}

func TestPathLossReferencePoint(t *testing.T) {
	m := urbanPathLoss
	if got := m.LossDB(1, nil); math.Abs(got-m.RefLossDB) > 1e-12 {
		t.Errorf("loss at d0 = %g, want %g", got, m.RefLossDB)
	}
	// Below the reference distance the loss clamps at the reference loss.
	if got := m.LossDB(0.01, nil); math.Abs(got-m.RefLossDB) > 1e-12 {
		t.Errorf("loss below d0 = %g, want %g", got, m.RefLossDB)
	}
	// One decade adds 10·n dB.
	if got := m.LossDB(10, nil) - m.LossDB(1, nil); math.Abs(got-10*m.Exponent) > 1e-9 {
		t.Errorf("decade slope %g dB, want %g", got, 10*m.Exponent)
	}
}

func TestShadowingIsRandomButSeeded(t *testing.T) {
	m := urbanPathLoss
	a := m.LossDB(100, rand.New(rand.NewPCG(1, 1)))
	b := m.LossDB(100, rand.New(rand.NewPCG(1, 1)))
	c := m.LossDB(100, rand.New(rand.NewPCG(2, 2)))
	if a != b {
		t.Error("same seed produced different shadowing")
	}
	if a == c {
		t.Error("different seeds produced identical shadowing")
	}
}

func TestCombinePlacesEmissions(t *testing.T) {
	e1 := Emission{Samples: []complex128{1, 1}, StartSample: 0, Gain: 1}
	e2 := Emission{Samples: []complex128{1, 1}, StartSample: 1, Gain: 2i}
	out := Combine(4, []Emission{e1, e2}, Config{}, nil)
	want := []complex128{1, 1 + 2i, 2i, 0}
	for i := range want {
		if cmplx.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestCombineTruncatesAndClipsNegativeStarts(t *testing.T) {
	e := Emission{Samples: []complex128{1, 2, 3, 4}, StartSample: -2, Gain: 1}
	out := Combine(3, []Emission{e}, Config{}, nil)
	want := []complex128{3, 4, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	long := Emission{Samples: make([]complex128, 100), StartSample: 2, Gain: 1}
	if got := Combine(3, []Emission{long}, Config{}, nil); len(got) != 3 {
		t.Errorf("combined length %d", len(got))
	}
}

func TestCombineAddsCalibratedNoise(t *testing.T) {
	cfg := Config{NoiseFloorDBm: -20} // strong noise for a cheap test
	rng := rand.New(rand.NewPCG(3, 3))
	out := Combine(100000, nil, cfg, rng)
	gotPower := dsp.Power(out)
	wantPower := math.Pow(10, cfg.NoiseFloorDBm/10)
	if math.Abs(gotPower-wantPower) > 0.05*wantPower {
		t.Errorf("noise power %g, want %g", gotPower, wantPower)
	}
}

func TestQuantizeRoundsAndClips(t *testing.T) {
	x := []complex128{complex(0.1234, -0.567), complex(10, -10)}
	Quantize(x, 8, 1)
	step := 1.0 / 128
	r := real(x[0]) / step
	if math.Abs(r-math.Round(r)) > 1e-9 {
		t.Errorf("real part %g not on quantizer grid", real(x[0]))
	}
	if real(x[1]) != 1 || imag(x[1]) != -1 {
		t.Errorf("clipping failed: %v", x[1])
	}
}

func TestQuantizeKillsSubLSBSignals(t *testing.T) {
	// A signal below half an LSB quantizes to zero — the ADC floor that caps
	// below-noise decoding (paper Sec. 5.2).
	x := []complex128{complex(1e-6, -1e-6)}
	Quantize(x, 12, 4)
	if x[0] != 0 {
		t.Errorf("sub-LSB sample survived quantization: %v", x[0])
	}
}

func TestQuantizePanicsOnBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantize(bits=0) did not panic")
		}
	}()
	Quantize([]complex128{1}, 0, 1)
}

func TestSNRdBAndRangeForSNRConsistent(t *testing.T) {
	pl := urbanPathLoss
	pl.ShadowSigmaDB = 0
	const target = -5.0
	d := RangeForSNR(target, 14, pl, receiver)
	if d <= 0 {
		t.Fatalf("range %g", d)
	}
	if got := 14 - pl.LossDB(d, nil) - receiver.NoiseFloorDBm; math.Abs(got-target) > 1e-6 {
		t.Errorf("SNR at computed range = %g dB, want %g", got, target)
	}
}

func TestRangeMonotoneInPowerProperty(t *testing.T) {
	pl := urbanPathLoss
	cfg := receiver
	check := func(p1, p2 float64) bool {
		p1 = math.Mod(math.Abs(p1), 30)
		p2 = math.Mod(math.Abs(p2), 30)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return RangeForSNR(0, p1, pl, cfg) <= RangeForSNR(0, p2, pl, cfg)+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseSigma(t *testing.T) {
	// 0 dBm noise: unit power, split across two quadratures.
	if s := NoiseSigma(0); math.Abs(s-math.Sqrt(0.5)) > 1e-12 {
		t.Errorf("sigma = %g", s)
	}
}

func TestApplyMultipathStructure(t *testing.T) {
	x := []complex128{1, 0, 0, 0}
	taps := []Tap{{DelaySamples: 2, Gain: 0.5i}}
	y := ApplyMultipath(x, taps)
	want := []complex128{1, 0, 0.5i, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	// Input unmodified, length preserved.
	if x[2] != 0 {
		t.Error("input mutated")
	}
	if len(y) != len(x) {
		t.Errorf("length %d", len(y))
	}
}

func TestApplyMultipathZeroTapsIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := ApplyMultipath(x, nil)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("sample %d changed", i)
		}
	}
}

func TestApplyMultipathPanicsOnNegativeDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	ApplyMultipath([]complex128{1}, []Tap{{DelaySamples: -1, Gain: 1}})
}
