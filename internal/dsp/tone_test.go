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

func BenchmarkToneKernel(b *testing.B) {
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tone(dst, len(dst), 0.1337, 0)
	}
}
