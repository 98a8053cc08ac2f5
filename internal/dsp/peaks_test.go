package dsp

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestFindPeaksTwoTones(t *testing.T) {
	const n, pad = 256, 16
	x := Tone(nil, n, 40.3/n, 0)
	y := Tone(nil, n, 90.7/n, 1.0)
	Scale(y, 0.5)
	Add(x, y)
	spec := PaddedSpectrum(x, pad)
	peaks := FindPeaks(spec, PeakConfig{Pad: pad, MinSeparation: 0.9, Threshold: NoiseFloorScratch(spec, nil) * 4, Max: 4})
	if len(peaks) < 2 {
		t.Fatalf("found %d peaks, want >= 2: %v", len(peaks), peaks)
	}
	// Strongest first.
	if peaks[0].Mag < peaks[1].Mag {
		t.Errorf("peaks not sorted by magnitude: %v", peaks[:2])
	}
	if math.Abs(peaks[0].Bin-40.3) > 0.1 {
		t.Errorf("strong peak at %.3f, want 40.3", peaks[0].Bin)
	}
	if math.Abs(peaks[1].Bin-90.7) > 0.1 {
		t.Errorf("weak peak at %.3f, want 90.7", peaks[1].Bin)
	}
}

func TestFindPeaksSuppressesSideLobes(t *testing.T) {
	// A single fractional tone produces sinc side lobes spaced one natural
	// bin apart; with MinSeparation just under a bin and a sane threshold,
	// only the main lobe should be reported near the tone.
	const n, pad = 128, 16
	x := Tone(nil, n, 33.5/n, 0)
	spec := PaddedSpectrum(x, pad)
	peaks := FindPeaks(spec, PeakConfig{Pad: pad, MinSeparation: 0.9, Threshold: 0.3 * float64(n), Max: 0})
	if len(peaks) == 0 {
		t.Fatal("no peaks found")
	}
	if math.Abs(peaks[0].Bin-33.5) > 0.1 {
		t.Errorf("main peak at %.3f, want 33.5", peaks[0].Bin)
	}
	for _, p := range peaks[1:] {
		if p.Mag > 0.8*peaks[0].Mag {
			t.Errorf("side lobe %v too strong relative to main %v", p, peaks[0])
		}
	}
}

func TestFindPeaksRespectsMax(t *testing.T) {
	const n, pad = 256, 8
	x := make([]complex128, n)
	for _, b := range []float64{10, 50, 90, 130, 170} {
		Add(x, Tone(nil, n, b/n, 0))
	}
	spec := PaddedSpectrum(x, pad)
	peaks := FindPeaks(spec, PeakConfig{Pad: pad, MinSeparation: 0.9, Threshold: 1, Max: 3})
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks, want 3", len(peaks))
	}
}

func TestFindPeaksEmptyAndThreshold(t *testing.T) {
	if p := FindPeaks(nil, PeakConfig{Pad: 1}); p != nil {
		t.Errorf("peaks of empty spectrum: %v", p)
	}
	spec := []float64{1, 2, 1, 2, 1}
	if p := FindPeaks(spec, PeakConfig{Pad: 1, Threshold: 10}); len(p) != 0 {
		t.Errorf("threshold should suppress all peaks, got %v", p)
	}
}

func TestFracDiffWraps(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{0.1, 0.9, 0.2},  // wraps: 0.1 - 0.9 = -0.8 -> +0.2
		{0.9, 0.1, -0.2}, // wraps the other way
		{0.5, 0.25, 0.25},
		{0.0, 0.0, 0.0},
	}
	for _, c := range cases {
		if got := FracDiff(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("FracDiff(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
}

func TestFracDiffRangeProperty(t *testing.T) {
	check := func(a, b float64) bool {
		a = math.Mod(math.Abs(a), 1)
		b = math.Mod(math.Abs(b), 1)
		d := FracDiff(a, b)
		return d >= -0.5 && d < 0.5
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCircularBinDist(t *testing.T) {
	if d := CircularBinDist(1, 255, 256); math.Abs(d-2) > 1e-12 {
		t.Errorf("dist(1,255)=%g, want 2", d)
	}
	if d := CircularBinDist(100, 100, 256); d != 0 {
		t.Errorf("dist(100,100)=%g, want 0", d)
	}
}

func TestNoiseFloorRobustToPeaks(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	spec := make([]float64, 4096)
	for i := range spec {
		spec[i] = math.Abs(rng.NormFloat64())
	}
	base := NoiseFloorScratch(spec, nil)
	// Inject 10 huge peaks; the median should barely move.
	for i := 0; i < 10; i++ {
		spec[i*400] = 1e6
	}
	after := NoiseFloorScratch(spec, nil)
	if math.Abs(after-base) > 0.05*base+1e-9 {
		t.Errorf("noise floor moved from %g to %g after injecting peaks", base, after)
	}
}

// findPeaksModulo is FindPeaksScratch as it was before the candidate loop
// stopped wrapping every index: both neighbours fetched through a modulo,
// then the three comparisons.
func findPeaksModulo(spectrum []float64, cfg PeakConfig) []Peak {
	n := len(spectrum)
	period := float64(n) / float64(cfg.Pad)
	var cands []Peak
	for i := 0; i < n; i++ {
		prev := spectrum[(i-1+n)%n]
		next := spectrum[(i+1)%n]
		v := spectrum[i]
		if v < cfg.Threshold || v < prev || v <= next {
			continue
		}
		delta := 0.0
		den := prev - 2*v + next
		if den != 0 {
			delta = 0.5 * (prev - next) / den
			if delta > 0.5 {
				delta = 0.5
			} else if delta < -0.5 {
				delta = -0.5
			}
		}
		interpMag := v - 0.25*(prev-next)*delta
		bin := (float64(i) + delta) / float64(cfg.Pad)
		if bin < 0 {
			bin += period
		}
		cands = append(cands, Peak{Bin: bin, Mag: interpMag})
	}
	slices.SortFunc(cands, func(a, b Peak) int {
		if a.Mag > b.Mag {
			return -1
		}
		if a.Mag < b.Mag {
			return 1
		}
		return 0
	})
	var out []Peak
	for _, c := range cands {
		ok := true
		for _, kept := range out {
			if CircularBinDist(c.Bin, kept.Bin, period) < cfg.MinSeparation {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, c)
		if cfg.Max > 0 && len(out) >= cfg.Max {
			break
		}
	}
	return out
}

// TestFindPeaksWrapMatchesReference holds the modulo-free candidate loop to
// the modulo form on the inputs where wrapping matters: peaks on the first
// and last bin, a plateau across the wrap, a NaN bin (which every comparison
// lets through), the one- and two-bin spectra, and Max binding.
func TestFindPeaksWrapMatchesReference(t *testing.T) {
	nan := math.NaN()
	noisy := make([]float64, 8192)
	rng := rand.New(rand.NewPCG(29, 0xABCD))
	for i := range noisy {
		noisy[i] = rng.ExpFloat64()
	}
	noisy[0], noisy[8191], noisy[4000], noisy[4100] = 60, 55, 50, 45
	cases := []struct {
		name string
		spec []float64
		cfg  PeakConfig
	}{
		{"peak at 0", []float64{9, 3, 1, 1, 1, 1, 1, 4}, PeakConfig{Pad: 1, Threshold: 2}},
		{"peak at n-1", []float64{4, 1, 1, 1, 1, 1, 3, 9}, PeakConfig{Pad: 2, Threshold: 2}},
		{"plateau across the wrap", []float64{7, 1, 1, 1, 1, 1, 1, 7}, PeakConfig{Pad: 1, Threshold: 2}},
		{"flat", []float64{5, 5, 5, 5}, PeakConfig{Pad: 1, Threshold: 2}},
		{"NaN bin", []float64{1, 8, 1, nan, 1, 6, 1, 1}, PeakConfig{Pad: 1, Threshold: 2}},
		{"NaN at the wrap", []float64{nan, 1, 8, 1, 1, 1, 6, 1}, PeakConfig{Pad: 2, Threshold: 2}},
		{"NaN threshold", []float64{1, 8, 1, 1, 6, 1}, PeakConfig{Pad: 1, Threshold: nan}},
		{"n=1", []float64{3}, PeakConfig{Pad: 1, Threshold: 2}},
		{"n=1 below threshold", []float64{1}, PeakConfig{Pad: 1, Threshold: 2}},
		{"n=2", []float64{3, 5}, PeakConfig{Pad: 1, Threshold: 2}},
		{"n=2 equal", []float64{5, 5}, PeakConfig{Pad: 2, Threshold: 2}},
		{"Max binds", noisy, PeakConfig{Pad: 16, MinSeparation: 0.9, Threshold: 5, Max: 3}},
		{"padded, ends and middle", noisy, PeakConfig{Pad: 16, MinSeparation: 0.9, Threshold: 5}},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cases {
		want := findPeaksModulo(c.spec, c.cfg)
		got := FindPeaks(c.spec, c.cfg)
		if len(got) != len(want) {
			t.Errorf("%s: %d peaks %v, modulo form %d %v", c.name, len(got), got, len(want), want)
			continue
		}
		for i := range want {
			if !same(got[i].Bin, want[i].Bin) || !same(got[i].Mag, want[i].Mag) {
				t.Errorf("%s: peak %d = %+v, modulo form %+v", c.name, i, got[i], want[i])
			}
		}
	}
	if got := findPeaksModulo(noisy, cases[len(cases)-2].cfg); len(got) != 3 {
		t.Errorf("Max: reference kept %d peaks, want the case to bind at 3", len(got))
	}
}
