package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestFreqShiftMovesSpectrum(t *testing.T) {
	const n = 256
	x := Tone(nil, n, 30.0/n, 0)
	y := FreqShift(x, 5.0/n)
	spec := NewFFT(n).Transform(nil, y)
	maxK, maxV := 0, 0.0
	for k, v := range spec {
		if m := cmplx.Abs(v); m > maxV {
			maxK, maxV = k, m
		}
	}
	if maxK != 35 {
		t.Errorf("shifted tone at bin %d, want 35", maxK)
	}
}

func TestFreqShiftPreservesEnergyProperty(t *testing.T) {
	check := func(seed uint64, f float64) bool {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return true
		}
		f = math.Mod(f, 0.5)
		rng := rand.New(rand.NewPCG(seed, 11))
		x := randSignal(rng, 128)
		y := FreqShift(x, f)
		return math.Abs(Energy(x)-Energy(y)) < 1e-9*Energy(x)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRotateAndScale(t *testing.T) {
	x := []complex128{1, 2, 3}
	Rotate(x, math.Pi) // multiply by -1
	want := []complex128{-1, -2, -3}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("Rotate: x[%d]=%v, want %v", i, x[i], want[i])
		}
	}
	Scale(x, 2i)
	want = []complex128{-2i, -4i, -6i}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("Scale: x[%d]=%v, want %v", i, x[i], want[i])
		}
	}
}

func TestAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	x := randSignal(rng, 64)
	y := randSignal(rng, 64)
	orig := append([]complex128(nil), x...)
	Add(x, y)
	for i := range x {
		if x[i] != orig[i]+y[i] {
			t.Fatalf("Add: sample %d = %v, want %v", i, x[i], orig[i]+y[i])
		}
	}
}

func TestAddPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Add(make([]complex128, 3), make([]complex128, 4))
}

func TestConjConjugates(t *testing.T) {
	x := []complex128{1 + 2i, -3 - 4i}
	c := Conj(x)
	if c[0] != 1-2i || c[1] != -3+4i {
		t.Errorf("Conj = %v", c)
	}
	// Original untouched.
	if x[0] != 1+2i {
		t.Error("Conj modified its input")
	}
}

func TestStatsHelpers(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %g", m)
	}
	if m := MedianInPlace([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("Median = %g", m)
	}
	if m := MedianInPlace([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %g", m)
	}
	if r := RMS([]float64{3, 4}); math.Abs(r-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", r)
	}
	if p := Percentile(xs, 50); p != 2.5 {
		t.Errorf("P50 = %g", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Errorf("P0 = %g", p)
	}
	if p := Percentile(xs, 100); p != 4 {
		t.Errorf("P100 = %g", p)
	}
	cdf := EmpiricalCDF([]float64{2, 1})
	if len(cdf) != 2 || cdf[0].X != 1 || cdf[0].P != 0.5 || cdf[1].P != 1 {
		t.Errorf("CDF = %v", cdf)
	}
}
