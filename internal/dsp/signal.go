package dsp

import (
	"fmt"
	"math"
)

// Tone writes the complex exponential e^{j(2π·freq·k + phase)}, k < n, into
// dst and returns it (freq in cycles per sample, phase in radians). dst is
// allocated when its length is not n.
//
// The tone is built by doubling: with dst[0..m) in place, dst[m..2m) is
// dst[0..m) times the one phasor w_m = e^{j2π·freq·m}, for m = 1, 2, 4, … —
// n complex multiplies and ⌈log₂n⌉/2 math.Sincos calls instead of n.
// Element k is the product of one phasor per set bit of k, so its error is
// one phasor error and one multiply rounding per doubling level; nothing
// accumulates along the slice the way a k-step recurrence would.
//
// w_1, w_4, w_16, … come from math.Sincos with the angle reduced in cycles
// first — freq·m is exact for a power-of-two m, and so is subtracting its
// nearest integer — which keeps them accurate where the per-sample form
// math.Sincos(2π·freq·k) has already lost ε·2π·|freq|·k to the rounding of
// its argument. w_2, w_8, … are each the square of the phasor below: twice
// its error plus a rounding, and never a second squaring on top. That stays
// inside 4ε per level — 4·⌈log₂n⌉·ε per element, the bound the tests hold it
// to (measured: under 20ε at n = 4096). The reduction is odd in freq, so
// Tone(−freq) is bit-for-bit the conjugate of Tone(freq).
func Tone(dst []complex128, n int, freq, phase float64) []complex128 {
	if len(dst) != n {
		dst = make([]complex128, n)
	}
	if n == 0 {
		return dst
	}
	s, c := math.Sincos(phase)
	dst[0] = complex(c, s)
	var w complex128
	for m, square := 1, false; m < n; m, square = m<<1, !square {
		if square {
			w *= w
		} else {
			cyc := freq * float64(m)
			s, c := math.Sincos(2 * math.Pi * (cyc - math.RoundToEven(cyc)))
			w = complex(c, s)
		}
		out := dst[m:min(2*m, n)]
		for k, v := range dst[:len(out)] {
			out[k] = v * w
		}
	}
	return dst
}

// FreqShift multiplies x by exp(j2π f n) sample-wise, shifting its spectrum
// by f cycles per sample, and returns a new slice. This is how a carrier
// frequency offset acts on a baseband signal. It keeps the per-sample
// math.Sincos form rather than multiplying by Tone: it is the synthesis path,
// and the stored golden fixtures are compared with a fresh synthesis byte for
// byte (TestGoldenFixturesMatchSpecs).
func FreqShift(x []complex128, f float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		s, c := math.Sincos(2 * math.Pi * f * float64(i))
		out[i] = v * complex(c, s)
	}
	return out
}

// Rotate multiplies every sample of x by the unit phasor exp(jθ) in place
// and returns x.
func Rotate(x []complex128, theta float64) []complex128 {
	s, c := math.Sincos(theta)
	r := complex(c, s)
	for i := range x {
		x[i] *= r
	}
	return x
}

// Scale multiplies every sample of x by g in place and returns x.
func Scale(x []complex128, g complex128) []complex128 {
	for i := range x {
		x[i] *= g
	}
	return x
}

// Add accumulates src into dst element-wise; the slices must have equal
// length.
func Add(dst, src []complex128) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dsp: Add length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Sub subtracts src from dst element-wise in place.
func Sub(dst, src []complex128) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dsp: Sub length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] -= v
	}
}

// Mul multiplies dst by src element-wise in place (e.g. dechirping a received
// symbol with a down-chirp).
func Mul(dst, src []complex128) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("dsp: Mul length mismatch %d != %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] *= v
	}
}

// Conj returns the element-wise complex conjugate of x as a new slice.
func Conj(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(real(v), -imag(v))
	}
	return out
}

// FractionalDelay delays x by d samples (d may be fractional and/or
// negative) using the frequency-domain phase-ramp method, returning a new
// slice of the same length. The operation is circular; callers that need a
// linear delay should pad first. Sub-sample timing offsets between LP-WAN
// transmitters are modelled this way.
func FractionalDelay(x []complex128, d float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	pn := NextPow2(n)
	in := make([]complex128, pn)
	copy(in, x)
	f := NewFFT(pn)
	spec := f.Transform(nil, in)
	for k := 0; k < pn; k++ {
		// Signed frequency index for a conjugate-symmetric phase ramp.
		kk := k
		if k > pn/2 {
			kk = k - pn
		}
		theta := -2 * math.Pi * float64(kk) * d / float64(pn)
		s, c := math.Sincos(theta)
		spec[k] *= complex(c, s)
	}
	out := f.InverseTransform(nil, spec)
	scale := complex(1/float64(pn), 0)
	res := make([]complex128, n)
	for i := 0; i < n; i++ {
		res[i] = out[i] * scale
	}
	return res
}

// Hann returns an n-point Hann window.
func Hann(n int) []float64 {
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := range w {
		w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return w
}

// ApplyWindow multiplies x by window w in place; lengths must match.
func ApplyWindow(x []complex128, w []float64) {
	if len(x) != len(w) {
		panic(fmt.Sprintf("dsp: window length %d != signal length %d", len(w), len(x)))
	}
	for i := range x {
		x[i] *= complex(w[i], 0)
	}
}

// Sinc returns the normalized sinc function sin(πx)/(πx).
func Sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// DirichletMag returns the magnitude of the Dirichlet (periodic sinc) kernel
// of length n evaluated at a bin offset x: |sin(πx) / (n·sin(πx/n))|·n.
// This is the exact leakage shape of a rectangular-windowed tone across FFT
// bins, which the fine-offset estimator models.
func DirichletMag(x float64, n int) float64 {
	if math.Abs(math.Mod(x, float64(n))) < 1e-12 {
		return float64(n)
	}
	num := math.Sin(math.Pi * x)
	den := math.Sin(math.Pi * x / float64(n))
	if den == 0 {
		return float64(n)
	}
	return math.Abs(num / den)
}
