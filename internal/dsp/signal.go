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

// Conj returns the element-wise complex conjugate of x as a new slice.
func Conj(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(real(v), -imag(v))
	}
	return out
}
