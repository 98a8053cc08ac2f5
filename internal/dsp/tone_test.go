package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"testing"
)

// toneRef is the per-sample form of a tone, math.Sincos(2π·f·k), with the
// phase reduced exactly first: f·k is split into its rounded product and the
// rounding error (FMA), so the reference carries only Sincos' own error and
// not the ε·2π·|f|·k the plain product would have lost before the call.
func toneRef(f float64, k int) complex128 {
	hi := f * float64(k)
	lo := math.FMA(f, float64(k), -hi)
	s, c := math.Sincos(2 * math.Pi * ((hi - math.RoundToEven(hi)) + lo))
	return complex(c, s)
}

// toneTol is the kernel's error bound for an n-sample tone: four roundings
// per doubling level.
func toneTol(n int) float64 {
	const eps = 1.0 / (1 << 52)
	return 4 * float64(max(1, bits.Len(uint(n-1)))) * eps
}

func checkTone(t *testing.T, n int, f float64) {
	t.Helper()
	tone := Tone(nil, n, f, 0)
	neg := Tone(nil, n, -f, 0)
	tol := toneTol(n)
	for k, v := range tone {
		if e := cmplx.Abs(v - toneRef(f, k)); e > tol {
			t.Fatalf("n=%d f=%g: element %d off by %.3g, bound %.3g", n, f, k, e, tol)
		}
		if neg[k] != cmplx.Conj(v) {
			t.Fatalf("n=%d f=%g: Tone(-f)[%d] = %v is not the conjugate of %v", n, f, k, neg[k], v)
		}
	}
}

func TestToneMatchesSincos(t *testing.T) {
	freqs := []float64{0, 0.5, 1, 0.1337, 0.73, 1.0 / 3, 100.25 / 128, 1023.999 / 1024, 1e-9, math.SmallestNonzeroFloat64}
	for _, n := range []int{1, 2, 3, 127, 128, 1024, 4096} {
		for _, f := range freqs {
			checkTone(t, n, f)
			checkTone(t, n, -f)
		}
	}
	if got := Tone(nil, 0, 0.25, 0); len(got) != 0 {
		t.Fatalf("n=0 returned %d samples", len(got))
	}
}

// TestToneVersusPlainProduct bounds the distance to the form the tone
// replaced, math.Sincos(2π·f·k) on the rounded product: the kernel's own
// bound plus that form's argument rounding.
func TestToneVersusPlainProduct(t *testing.T) {
	const eps = 1.0 / (1 << 52)
	for _, f := range []float64{0.1337, -0.73, 1, 900.3 / 1024} {
		const n = 4096
		for k, v := range Tone(nil, n, f, 0) {
			s, c := math.Sincos(2 * math.Pi * f * float64(k))
			tol := toneTol(n) + eps*2*math.Pi*math.Abs(f)*float64(k)
			if e := cmplx.Abs(v - complex(c, s)); e > tol {
				t.Fatalf("f=%g: element %d is %.3g from the plain product form, bound %.3g", f, k, e, tol)
			}
		}
	}
}

func TestTonePhaseAndReuse(t *testing.T) {
	const n, f, phase = 200, 0.3171, 1.25
	buf := make([]complex128, n)
	got := Tone(buf, n, f, phase)
	if &got[0] != &buf[0] {
		t.Fatal("Tone reallocated a right-sized destination")
	}
	rot := cmplx.Rect(1, phase)
	for k, v := range got {
		if e := cmplx.Abs(v - rot*toneRef(f, k)); e > toneTol(n)+4.0/(1<<52) {
			t.Fatalf("element %d off by %.3g with a start phase", k, e)
		}
	}
}

// FuzzToneMatchesSincos holds the doubling kernel to its bound against the
// exact-phase per-sample form for arbitrary lengths and frequencies in
// [−1, 1] cycles per sample.
func FuzzToneMatchesSincos(f *testing.F) {
	f.Add(uint16(127), 0.1337)
	f.Add(uint16(4095), -1.0)
	f.Add(uint16(0), 0.5)
	f.Add(uint16(1023), -0.4999999999999999)
	f.Fuzz(func(t *testing.T, nRaw uint16, freq float64) {
		if math.IsNaN(freq) || math.IsInf(freq, 0) {
			return
		}
		if math.Abs(freq) > 1 {
			freq = math.Mod(freq, 1)
		}
		checkTone(t, 1+int(nRaw)%4096, freq)
	})
}

// squaringTone is the tone PrefixBySquaring walks, built in the plainest
// order: w_1 from the reduced argument, each later phasor the square of the
// one before, element m+k the product of element k and w_m.
func squaringTone(n int, freq float64) []complex128 {
	tone := make([]complex128, n)
	if n == 0 {
		return tone
	}
	tone[0] = 1
	s, c := math.Sincos(2 * math.Pi * (freq - math.RoundToEven(freq)))
	w := complex(c, s)
	for m := 1; m < n; m, w = 2*m, w*w {
		for k := 0; k < m && m+k < n; k++ {
			tone[m+k] = tone[k] * w
		}
	}
	return tone
}

// TestPrefixBySquaringMatchesParts holds the walk to its two passes, bit for
// bit: the squaring tone above, then the running correlation against it in
// index order.
func TestPrefixBySquaringMatchesParts(t *testing.T) {
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	for _, n := range []int{1, 2, 3, 5, 127, 128, 129, 1000, 4096} {
		x := make([]complex128, n)
		for k := range x {
			x[k] = complex(math.Sin(float64(3*k+1)), math.Cos(float64(7*k)))
		}
		N := float64(n)
		for _, fBins := range []float64{0, 1, 37, -37, 0.5, -12.5, 41.37, N - 0.001, N + 3.7, -7.25 * N} {
			freq := fBins / N
			tone := squaringTone(n, freq)
			want := make([]complex128, n+1)
			var sr, si float64
			for k, v := range x {
				tr, ti := real(tone[k]), imag(tone[k])
				sr += real(v)*tr + imag(v)*ti
				si += imag(v)*tr - real(v)*ti
				want[k+1] = complex(sr, si)
			}
			scratch, prefix := make([]complex128, n), make([]complex128, n+1)
			for i := range prefix {
				prefix[i] = cmplx.NaN()
			}
			PrefixBySquaring(scratch, prefix, x, freq)
			for i := range want {
				if !same(prefix[i], want[i]) {
					t.Fatalf("n=%d f=%g bins: prefix[%d] = %v, the two passes give %v", n, fBins, i, prefix[i], want[i])
				}
			}
		}
	}
	PrefixBySquaring(nil, make([]complex128, 1), nil, 0.25)
}

// TestPrefixBySquaringTone holds the walk's tone to its stated bound,
// (6k + 2⌈log₂n⌉)·ε at element k, against the exact-phase per-sample form.
func TestPrefixBySquaringTone(t *testing.T) {
	const eps = 1.0 / (1 << 52)
	worst := 0.0
	for _, n := range []int{128, 1024, 4096} {
		levels := float64(bits.Len(uint(n - 1)))
		for _, f := range []float64{0.1337, -0.73, 0.5, 1.0 / 3, 100.25 / 128, -1023.999 / 1024, 1e-9, 3.25, -2.5} {
			for k, v := range squaringTone(n, f) {
				e := cmplx.Abs(v - toneRef(f, k))
				if tol := (6*float64(k) + 2*levels) * eps; e > tol {
					t.Fatalf("n=%d f=%g: element %d off by %.3g, bound %.3g", n, f, k, e, tol)
				}
				worst = max(worst, e/(float64(n)*eps))
			}
		}
	}
	t.Logf("worst element error %.3g·n·ε (bound 6·n·ε + 2⌈log₂n⌉·ε)", worst)
}

func BenchmarkToneKernel(b *testing.B) {
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tone(dst, len(dst), 0.1337, 0)
	}
}
