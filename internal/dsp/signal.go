package dsp

import (
	"fmt"
	"math"

	"choir/internal/cpu"
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
		w = tonePhasor(w, freq, m, square)
		out := dst[m:min(2*m, n)]
		scaleLevel(out, dst[:len(out)], w)
	}
	return dst
}

// scaleLevel is one doubling level of Tone: out[k] = src[k]·w. With AVX2 it
// runs scaleLevelAVX2, which gives scaleLevelGeneric's bits.
func scaleLevel(out, src []complex128, w complex128) {
	if cpu.AVX2 {
		scaleLevelAVX2(out[:len(src)], src, w)
		return
	}
	scaleLevelGeneric(out, src, w)
}

// scaleLevelGeneric is scaleLevel's Go kernel: the only one off amd64 or
// without AVX2, and the reference the AVX2 kernel is tested against.
func scaleLevelGeneric(out, src []complex128, w complex128) {
	out = out[:len(src)]
	for k, v := range src {
		out[k] = v * w
	}
}

// tonePhasor returns Tone's doubling phasor w_m = e^{j2π·freq·m}: the square
// of the level below's phasor prev when square is set, else math.Sincos of
// the angle reduced in cycles.
func tonePhasor(prev complex128, freq float64, m int, square bool) complex128 {
	if square {
		return prev * prev
	}
	cyc := freq * float64(m)
	s, c := math.Sincos(2 * math.Pi * (cyc - math.RoundToEven(cyc)))
	return complex(c, s)
}

// PrefixBySquaring writes the running correlation of x against the tone at
// freq, prefix[i] = Σ_{k<i} x[k]·conj(tone[k]), into prefix (len(x)+1), for a
// caller that wants the sums and not the tone. It walks Tone's doubling
// levels in Tone's order, folding each level's elements in order into the
// running sums, with two differences: every phasor after w_1 is the square
// of the one below, so a walk makes one math.Sincos call instead of one per
// other level, and the last level's tone elements are never stored. scratch
// (len(x)) holds the tone below the last level afterwards.
//
// Squaring trades accuracy for the calls, and the error bound says how much
// (ε = 2⁻⁵²). w_1 is within πε (its reduced argument's rounding) plus ε
// (math.Sincos) of e^{j2π·freq}, and a squaring doubles the error below it
// and adds about ε of its own, so w_m is within about 5.4·m·ε of
// e^{j2π·freq·m}. Tone element k is one phasor per set bit of k, so it is
// within (6k + 2⌈log₂n⌉)·ε of e^{j2π·freq·k} — under 6n·ε, where Tone's is
// 4⌈log₂n⌉·ε (TestPrefixBySquaringTone holds it). The sums add the terms in
// index order, over that tone.
func PrefixBySquaring(scratch, prefix, x []complex128, freq float64) {
	n := len(x)
	prefix = prefix[:n+1]
	prefix[0] = 0
	if n == 0 {
		return
	}
	sums := prefix[1:][:n]
	tone := scratch[:n]
	tone[0] = 1
	var sr, si float64
	tr, ti := real(tone[0]), imag(tone[0])
	sr += real(x[0])*tr + imag(x[0])*ti
	si += imag(x[0])*tr - real(x[0])*ti
	sums[0] = complex(sr, si)
	w := tonePhasor(0, freq, 1, false)
	m := 1
	for ; 2*m < n; m <<= 1 {
		sr, si = toneLevel(tone[m:2*m], tone[:m], x[m:2*m], sums[m:2*m], w, sr, si)
		w *= w
	}
	if m < n {
		prefixLevel(tone[:n-m], x[m:], sums[m:], w, sr, si)
	}
}

// prefixLevel is PrefixBySquaring's last doubling level: toneLevel without
// storing the tone. With AVX2 it runs prefixLevelAVX2, which gives
// prefixLevelGeneric's bits.
func prefixLevel(src, x, sums []complex128, w complex128, sr, si float64) {
	if cpu.AVX2 {
		prefixLevelAVX2(src, x[:len(src)], sums[:len(src)], w, sr, si)
		return
	}
	prefixLevelGeneric(src, x, sums, w, sr, si)
}

// prefixLevelGeneric is prefixLevel's Go kernel: the only one off amd64 or
// without AVX2, and the reference the AVX2 kernel is tested against.
func prefixLevelGeneric(src, x, sums []complex128, w complex128, sr, si float64) {
	x, sums = x[:len(src)], sums[:len(src)]
	for k, v := range src {
		t := v * w
		tr, ti := real(t), imag(t)
		sr += real(x[k])*tr + imag(x[k])*ti
		si += imag(x[k])*tr - real(x[k])*ti
		sums[k] = complex(sr, si)
	}
}

// toneLevel is one doubling level of PrefixBySquaring below its last:
// out[k] = src[k]·w, folded in order into the running sums sr, si of x
// against it, each stored into sums. It returns the sums. It is a function
// of its own so that its loop counter stays in a register: written inline in
// the level loop, the counter goes through the stack on every element. With AVX2 it
// runs toneLevelAVX2, which gives toneLevelGeneric's bits.
func toneLevel(out, src, x, sums []complex128, w complex128, sr, si float64) (float64, float64) {
	if cpu.AVX2 {
		n := len(src)
		return toneLevelAVX2(out[:n], src, x[:n], sums[:n], w, sr, si)
	}
	return toneLevelGeneric(out, src, x, sums, w, sr, si)
}

// toneLevelGeneric is toneLevel's Go kernel: the only one off amd64 or
// without AVX2, and the reference the AVX2 kernel is tested against.
func toneLevelGeneric(out, src, x, sums []complex128, w complex128, sr, si float64) (float64, float64) {
	out, x, sums = out[:len(src)], x[:len(src)], sums[:len(src)]
	for k, v := range src {
		t := v * w
		out[k] = t
		tr, ti := real(t), imag(t)
		sr += real(x[k])*tr + imag(x[k])*ti
		si += imag(x[k])*tr - real(x[k])*ti
		sums[k] = complex(sr, si)
	}
	return sr, si
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
