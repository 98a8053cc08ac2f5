package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Energy returns the total energy (sum of |x|²) of the signal.
func Energy(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e
}

// Power returns the mean power (energy per sample) of the signal.
func Power(x []complex128) float64 {
	if len(x) == 0 {
		return 0
	}
	return Energy(x) / float64(len(x))
}

func randSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 127: 128, 128: 128, 129: 256, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestNextPow2PanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -128} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NextPow2(%d) did not panic", n)
				}
			}()
			NextPow2(n)
		}()
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1023} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true, want false", n)
		}
	}
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		x := randSignal(rng, n)
		got := NewFFT(n).Transform(nil, x)
		want := naiveDFT(x)
		for k := range got {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: fft=%v naive=%v (|Δ|=%g)", n, k, got[k], want[k], d)
			}
		}
	}
}

func TestFFTInPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	x := randSignal(rng, 128)
	want := NewFFT(128).Transform(nil, x)
	inPlace := append([]complex128(nil), x...)
	NewFFT(128).Transform(inPlace, inPlace)
	for k := range want {
		if d := cmplx.Abs(inPlace[k] - want[k]); d > 1e-9 {
			t.Fatalf("in-place bin %d differs by %g", k, d)
		}
	}
}

func TestFFTPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFFT(12) did not panic")
		}
	}()
	NewFFT(12)
}

func TestFFTParsevalProperty(t *testing.T) {
	// Parseval: sum |x|^2 == (1/N) sum |X|^2, for random signals.
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 1 << (3 + int(seed%5)) // 8..128
		x := randSignal(rng, n)
		spec := NewFFT(n).Transform(nil, x)
		return math.Abs(Energy(x)-Energy(spec)/float64(n)) < 1e-6*Energy(x)+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// FFT(a*x + y) == a*FFT(x) + FFT(y)
	check := func(seed uint64, ar, ai float64) bool {
		if math.IsNaN(ar) || math.IsInf(ar, 0) || math.IsNaN(ai) || math.IsInf(ai, 0) {
			return true
		}
		ar = math.Mod(ar, 10)
		ai = math.Mod(ai, 10)
		a := complex(ar, ai)
		rng := rand.New(rand.NewPCG(seed, 77))
		const n = 64
		x := randSignal(rng, n)
		y := randSignal(rng, n)
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = a*x[i] + y[i]
		}
		f := NewFFT(n)
		fx := f.Transform(nil, x)
		fy := f.Transform(nil, y)
		fc := f.Transform(nil, comb)
		for k := 0; k < n; k++ {
			if cmplx.Abs(fc[k]-(a*fx[k]+fy[k])) > 1e-7*(1+cmplx.Abs(fc[k])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestToneLandsOnExpectedBin(t *testing.T) {
	const n = 256
	for _, bin := range []int{0, 1, 17, 128, 255} {
		x := Tone(nil, n, float64(bin)/n, 0)
		spec := NewFFT(n).Transform(nil, x)
		maxK, maxV := 0, 0.0
		for k, v := range spec {
			if m := cmplx.Abs(v); m > maxV {
				maxK, maxV = k, m
			}
		}
		if maxK != bin {
			t.Errorf("tone at bin %d detected at %d", bin, maxK)
		}
		if math.Abs(maxV-float64(n)) > 1e-6 {
			t.Errorf("tone bin %d magnitude %g, want %d", bin, maxV, n)
		}
	}
}

func TestPaddedSpectrumResolvesFractionalTone(t *testing.T) {
	const n, pad = 128, 16
	freq := 20.25 / n // a tone one quarter of the way between bins 20 and 21
	x := Tone(nil, n, freq, 0)
	spec := PaddedSpectrum(x, pad)
	maxK, maxV := 0, 0.0
	for k, v := range spec {
		if v > maxV {
			maxK, maxV = k, v
		}
	}
	got := float64(maxK) / pad
	if math.Abs(got-20.25) > 1.0/pad {
		t.Errorf("fractional tone at 20.25 bins detected at %.3f", got)
	}
}

func TestEnergyAndPower(t *testing.T) {
	x := []complex128{1, 1i, -1, -1i}
	if e := Energy(x); math.Abs(e-4) > 1e-12 {
		t.Errorf("Energy = %g, want 4", e)
	}
	if p := Power(x); math.Abs(p-1) > 1e-12 {
		t.Errorf("Power = %g, want 1", p)
	}
	if p := Power(nil); p != 0 {
		t.Errorf("Power(nil) = %g, want 0", p)
	}
}

// stagesOnePerPass is the loop the fused (*FFT).stages replaced: one radix-2
// stage per walk over the buffer.
func stagesOnePerPass(n int, dst, tw []complex128, fromSize int) {
	for size := fromSize; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				w := tw[k]
				a, b := dst[i], dst[i+half]*w
				dst[i], dst[i+half] = a+b, a-b
				k += step
			}
		}
	}
}

// TestFusedStagesBitIdentical holds the two-stages-per-pass loop to the
// exact-order contract: for every plan size, the plan's twiddle table and
// its conjugate, and starting stages that leave odd and even stage counts,
// the buffer comes out Float64bits-equal to the one-stage loop's.
func TestFusedStagesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 0xF05E))
	for n := 2; n <= 1<<14; n <<= 1 {
		f := NewFFT(n)
		x := randSignal(rng, n)
		for _, tw := range [][]complex128{f.forward, Conj(f.forward)} {
			for _, fromSize := range []int{2, 4, 32, n} {
				if fromSize > n {
					continue
				}
				want := append([]complex128(nil), x...)
				stagesOnePerPass(n, want, tw, fromSize)
				got := append([]complex128(nil), x...)
				f.stages(got, tw, fromSize)
				for k := range want {
					if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
						math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
						t.Fatalf("n=%d fromSize=%d: element %d = %v, one-stage loop %v", n, fromSize, k, got[k], want[k])
					}
				}
			}
		}
	}
}
