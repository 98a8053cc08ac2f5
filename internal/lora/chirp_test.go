package lora

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"choir/internal/dsp"
)

func TestUpChirpUnitModulus(t *testing.T) {
	c := UpChirp(256)
	for i, v := range c {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("sample %d has modulus %g", i, cmplx.Abs(v))
		}
	}
}

func TestDownChirpIsConjugate(t *testing.T) {
	up := UpChirp(128)
	down := DownChirp(128)
	for i := range up {
		if cmplx.Abs(up[i]*down[i]-1) > 1e-12 {
			t.Fatalf("up*down at %d = %v, want 1", i, up[i]*down[i])
		}
	}
}

func TestDechirpedBaseChirpIsDC(t *testing.T) {
	// Dechirping the symbol-0 chirp must concentrate all energy in bin 0.
	const n = 256
	up := UpChirp(n)
	down := DownChirp(n)
	d := Dechirp(nil, up, down)
	spec := dsp.NewFFT(n).Transform(nil, d)
	if mag := cmplx.Abs(spec[0]); math.Abs(mag-n) > 1e-6 {
		t.Errorf("bin 0 magnitude %g, want %d", mag, n)
	}
	for k := 1; k < n; k++ {
		if mag := cmplx.Abs(spec[k]); mag > 1e-6 {
			t.Errorf("bin %d leakage %g", k, mag)
		}
	}
}

func TestModulateDemodulateAllSymbols(t *testing.T) {
	for _, sf := range []SpreadingFactor{SF7, SF8} {
		m := MustModem(Params{SF: sf, Bandwidth: 125e3, CR: CR48, PreambleLen: 8, SyncWord: 0x34})
		n := sf.SymbolSize()
		for sym := 0; sym < n; sym++ {
			got, peak := m.DemodulateChirp(m.Symbol(sym))
			if got != sym {
				t.Fatalf("%v: modulated %d, demodulated %d", sf, sym, got)
			}
			if math.Abs(cmplx.Abs(peak)-float64(n)) > 1e-6 {
				t.Fatalf("%v sym %d: peak magnitude %g, want %d", sf, sym, cmplx.Abs(peak), n)
			}
		}
	}
}

func TestSymbolsAreOrthogonal(t *testing.T) {
	// Distinct symbol chirps at the same SF are orthogonal under the
	// dechirp-FFT receiver: symbol s lands in bin s only.
	m := MustModem(DefaultParams())
	n := m.Params.N()
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 20; trial++ {
		s1, s2 := rng.IntN(n), rng.IntN(n)
		if s1 == s2 {
			continue
		}
		sum := m.Symbol(s1)
		dsp.Add(sum, m.Symbol(s2))
		d := Dechirp(nil, sum, m.Down())
		spec := m.fft.Transform(nil, d)
		for _, s := range []int{s1, s2} {
			if mag := cmplx.Abs(spec[s]); math.Abs(mag-float64(n)) > 1e-6 {
				t.Fatalf("combined symbols %d+%d: bin %d magnitude %g, want %d", s1, s2, s, mag, n)
			}
		}
	}
}

func TestCFOShiftsDemodulatedPeakFractionally(t *testing.T) {
	// A CFO of k+f bins moves the dechirped tone by exactly k+f bins — the
	// core observation Choir exploits.
	m := MustModem(DefaultParams())
	n := m.Params.N()
	const sym = 37
	cfoBins := 5.4
	sig := dsp.FreqShift(m.Symbol(sym), cfoBins/float64(n))
	d := Dechirp(nil, sig, m.Down())
	spec := dsp.PaddedSpectrum(d, 16)
	peaks := dsp.FindPeaks(spec, dsp.PeakConfig{Pad: 16, MinSeparation: 0.9, Threshold: float64(n) / 2, Max: 1})
	if len(peaks) != 1 {
		t.Fatalf("found %d peaks", len(peaks))
	}
	want := float64(sym) + cfoBins
	if math.Abs(peaks[0].Bin-want) > 0.05 {
		t.Errorf("peak at %.3f bins, want %.3f", peaks[0].Bin, want)
	}
}

func TestTimingOffsetActsAsFrequencyOffset(t *testing.T) {
	// Chirp duality (Sec. 6.1): delaying a chirp by d samples moves its
	// dechirped peak by d bins (mod wraparound within the symbol).
	m := MustModem(DefaultParams())
	n := m.Params.N()
	const sym = 100
	// Build a two-symbol stream of the same chirp and window the middle so
	// the delayed window still contains a full chirp period.
	one := m.Symbol(sym)
	stream := append(append([]complex128{}, one...), one...)
	for _, d := range []int{1, 5, 37} {
		win := stream[d : d+n]
		got, _ := m.DemodulateChirp(win)
		// Advancing the window by d within a repeated chirp reduces the
		// apparent starting frequency by... equivalently shifts the peak to
		// (sym - d) mod n? Verify duality magnitude: the shift is linear in d.
		diff := (got - sym + n) % n
		if diff != n-d && diff != d {
			t.Fatalf("delay %d: symbol moved from %d to %d (diff %d)", d, sym, got, diff)
		}
	}
}

func TestModemValidation(t *testing.T) {
	bad := []Params{
		{SF: 5, Bandwidth: 125e3, CR: CR48, PreambleLen: 8},
		{SF: SF7, Bandwidth: 0, CR: CR48, PreambleLen: 8},
		{SF: SF7, Bandwidth: 125e3, CR: 0, PreambleLen: 8},
		{SF: SF7, Bandwidth: 125e3, CR: CR48, PreambleLen: 1},
	}
	for i, p := range bad {
		if _, err := NewModem(p); err == nil {
			t.Errorf("case %d: NewModem accepted invalid params %+v", i, p)
		}
	}
	if _, err := NewModem(DefaultParams()); err != nil {
		t.Errorf("default params rejected: %v", err)
	}
}

func TestModulateSymbolPanicsOutOfRange(t *testing.T) {
	m := MustModem(DefaultParams())
	for _, sym := range []int{-1, m.Params.N()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("symbol %d did not panic", sym)
				}
			}()
			m.Symbol(sym)
		}()
	}
}

func TestParamsDerivedQuantities(t *testing.T) {
	p := Params{SF: SF8, Bandwidth: 125e3, CR: CR48, PreambleLen: 8, SyncWord: 0x34}
	if p.N() != 256 {
		t.Errorf("N = %d", p.N())
	}
	// SF8 4/8: 8 * 0.5 * (125000/256) = 1953.125 bps
	if r := p.BitRate(); math.Abs(r-1953.125) > 1e-9 {
		t.Errorf("BitRate = %g", r)
	}
	sync := p.SyncSymbols()
	if sync[0] != 3*256/16 || sync[1] != 4*256/16 {
		t.Errorf("SyncSymbols = %v", sync)
	}
}

func TestSpreadingFactorStringAndValid(t *testing.T) {
	if SF7.String() != "SF7" {
		t.Errorf("String = %q", SF7.String())
	}
	if SpreadingFactor(6).Valid() || SpreadingFactor(13).Valid() {
		t.Error("out-of-range SF reported valid")
	}
	if CR45.String() != "4/5" || CR48.String() != "4/8" {
		t.Errorf("CR strings: %q %q", CR45.String(), CR48.String())
	}
}

func TestDemodulationRobustToNoiseProperty(t *testing.T) {
	// At high SNR, demodulation must always recover the symbol.
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		m := MustModem(DefaultParams())
		n := m.Params.N()
		sym := rng.IntN(n)
		sig := m.Symbol(sym)
		for i := range sig {
			sig[i] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.05
		}
		got, _ := m.DemodulateChirp(sig)
		return got == sym
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
