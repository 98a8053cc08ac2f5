package dsp

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/cpu"
)

// The AVX2 kernels (kernels_amd64.s) are exact-order: each must give its
// generic Go kernel's bits on any input. These tests and fuzz targets hold
// them to it. Two values match when their bits are equal or both are NaN: a
// NaN's sign and payload depend on which operand an instruction propagates,
// which Go leaves to the compiler, and no kernel output reads them.

// edgeValues are the special values the kernel tests mix into their inputs.
var edgeValues = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e300, -1e300, 1e-300, -1e-300,
	1, -1,
}

// kernelValue draws a float64: mostly a normal deviate, an edge value with
// probability edge.
func kernelValue(rng *rand.Rand, edge float64) float64 {
	if rng.Float64() < edge {
		return edgeValues[rng.IntN(len(edgeValues))]
	}
	return rng.NormFloat64()
}

func kernelSignal(rng *rand.Rand, n int, edge float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(kernelValue(rng, edge), kernelValue(rng, edge))
	}
	return x
}

// sameFloat reports whether a and b have equal bits or are both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// sameComplex is sameFloat on both parts.
func sameComplex(a, b complex128) bool {
	return sameFloat(real(a), real(b)) && sameFloat(imag(a), imag(b))
}

// firstDiff returns the first index where got and want differ (sameComplex),
// or -1.
func firstDiff(got, want []complex128) int {
	for i := range want {
		if !sameComplex(got[i], want[i]) {
			return i
		}
	}
	return -1
}

func requireAVX2(t testing.TB) {
	t.Helper()
	if !cpu.AVX2 {
		t.Skip("no AVX2: the generic kernels are the only path")
	}
}

// withGenericKernels runs fn with the generic kernels selected.
func withGenericKernels(fn func()) {
	saved := cpu.AVX2
	cpu.AVX2 = false
	defer func() { cpu.AVX2 = saved }()
	fn()
}

// checkLevels runs toneLevel's, scaleLevel's and prefixLevel's AVX2 and
// generic kernels on one input and fails on the first output they disagree on.
func checkLevels(t testing.TB, src, x []complex128, w complex128, sr, si float64) {
	t.Helper()
	n := len(src)
	wantOut, wantSums := make([]complex128, n), make([]complex128, n)
	wr, wi := toneLevelGeneric(wantOut, src, x, wantSums, w, sr, si)
	gotOut, gotSums := make([]complex128, n), make([]complex128, n)
	gr, gi := toneLevelAVX2(gotOut, src, x, gotSums, w, sr, si)
	if k := firstDiff(gotOut, wantOut); k >= 0 {
		t.Fatalf("toneLevel n=%d w=%v: tone[%d] = %v, generic %v", n, w, k, gotOut[k], wantOut[k])
	}
	if k := firstDiff(gotSums, wantSums); k >= 0 {
		t.Fatalf("toneLevel n=%d w=%v: sums[%d] = %v, generic %v", n, w, k, gotSums[k], wantSums[k])
	}
	if !sameFloat(gr, wr) || !sameFloat(gi, wi) {
		t.Fatalf("toneLevel n=%d w=%v: returns (%v, %v), generic (%v, %v)", n, w, gr, gi, wr, wi)
	}
	scaleLevelGeneric(wantOut, src, w)
	scaleLevelAVX2(gotOut, src, w)
	if k := firstDiff(gotOut, wantOut); k >= 0 {
		t.Fatalf("scaleLevel n=%d w=%v: out[%d] = %v, generic %v", n, w, k, gotOut[k], wantOut[k])
	}
	prefixLevelGeneric(src, x, wantSums, w, sr, si)
	prefixLevelAVX2(src, x, gotSums, w, sr, si)
	if k := firstDiff(gotSums, wantSums); k >= 0 {
		t.Fatalf("prefixLevel n=%d w=%v: sums[%d] = %v, generic %v", n, w, k, gotSums[k], wantSums[k])
	}
}

// TestLevelKernelsMatchGeneric holds toneLevelAVX2, scaleLevelAVX2 and
// prefixLevelAVX2 to their generic kernels bit for bit at every length from 0 to 130 — a
// single element and odd tails included — on random inputs, on inputs with
// ±0, subnormals, ±Inf, NaN and 1e±300 mixed in, and with a unit phasor and
// an edge-valued one.
func TestLevelKernelsMatchGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(59, 1))
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 20; trial++ {
			edge := []float64{0, 0.1, 0.5}[trial%3]
			src, x := kernelSignal(rng, n, edge), kernelSignal(rng, n, edge)
			s, c := math.Sincos(2 * math.Pi * rng.Float64())
			w := complex(c, s)
			if trial%4 == 3 {
				w = complex(kernelValue(rng, 0.5), kernelValue(rng, 0.5))
			}
			checkLevels(t, src, x, w, kernelValue(rng, edge), kernelValue(rng, edge))
		}
	}
}

// checkPasses runs every fused and lone pass an n-point plan can run with
// AVX2, from each starting size, on the AVX2 and generic kernels over x with
// twiddles tw, and fails on the first element they disagree on.
func checkPasses(t testing.TB, x, tw []complex128) {
	t.Helper()
	n := len(x)
	twq := tw[n/4:]
	for size := 4; size<<1 <= n; size <<= 1 {
		want, got := append([]complex128(nil), x...), append([]complex128(nil), x...)
		radix22Pass(want, tw, twq, size)
		radix22PassAVX2(got, tw, twq, size>>1, n/(size<<1))
		if k := firstDiff(got, want); k >= 0 {
			t.Fatalf("fused pass n=%d size=%d: element %d = %v, generic %v", n, size, k, got[k], want[k])
		}
	}
	for size := 4; size <= n; size <<= 1 {
		want, got := append([]complex128(nil), x...), append([]complex128(nil), x...)
		radix2Pass(want, tw, size)
		radix2PassAVX2(got, tw, size>>1, n/size)
		if k := firstDiff(got, want); k >= 0 {
			t.Fatalf("lone pass n=%d size=%d: element %d = %v, generic %v", n, size, k, got[k], want[k])
		}
	}
}

// TestFFTPassKernelsMatchGeneric holds radix22PassAVX2 and radix2PassAVX2 to
// their generic kernels bit for bit at every plan size from 4 to 2^13 and
// every pass size, over the plan's twiddles on random and edge-valued data
// and over edge-valued twiddles.
func TestFFTPassKernelsMatchGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(59, 2))
	for n := 4; n <= 1<<13; n <<= 1 {
		tw := NewFFT(n).forward
		checkPasses(t, kernelSignal(rng, n, 0), tw)
		checkPasses(t, kernelSignal(rng, n, 0.2), tw)
		checkPasses(t, kernelSignal(rng, n, 0), kernelSignal(rng, n/2, 0.3))
	}
}

// TestTransformsMatchGenericKernels runs Transform and TransformPruned at
// every plan size the decoder builds, with the AVX2 kernels and with the
// generic ones, and holds the spectra equal bit for bit.
func TestTransformsMatchGenericKernels(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(59, 3))
	for n := 1; n <= 1<<14; n <<= 1 {
		f := NewFFT(n)
		x := kernelSignal(rng, n, 0)
		short := x[:max(1, n/16)]
		got, gotPruned := f.Transform(nil, x), f.TransformPruned(nil, short)
		var want, wantPruned []complex128
		withGenericKernels(func() { want, wantPruned = f.Transform(nil, x), f.TransformPruned(nil, short) })
		if k := firstDiff(got, want); k >= 0 {
			t.Fatalf("Transform n=%d: bin %d = %v, generic %v", n, k, got[k], want[k])
		}
		if k := firstDiff(gotPruned, wantPruned); k >= 0 {
			t.Fatalf("TransformPruned n=%d: bin %d = %v, generic %v", n, k, gotPruned[k], wantPruned[k])
		}
	}
}

// fuzzComplex reads complex values from raw, 16 bytes each.
func fuzzComplex(raw []byte) []complex128 {
	x := make([]complex128, len(raw)/16)
	for i := range x {
		x[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])))
	}
	return x
}

// FuzzLevelKernels holds toneLevelAVX2, scaleLevelAVX2 and prefixLevelAVX2
// to their generic kernels bit for bit on arbitrary bits: the first half of raw is the source
// tone, the second the correlated signal.
func FuzzLevelKernels(f *testing.F) {
	f.Add(make([]byte, 48), 1.0, 0.0, 0.0, 0.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"), 0.6, -0.8, 1e300, math.Inf(-1))
	f.Fuzz(func(t *testing.T, raw []byte, wr, wi, sr, si float64) {
		v := fuzzComplex(raw)
		if len(v) > 2048 {
			return
		}
		n := len(v) / 2
		checkLevels(t, v[:n], v[n:2*n], complex(wr, wi), sr, si)
	})
}

// FuzzFFTPassKernels holds the FFT pass kernels to their generic kernels bit
// for bit on arbitrary data bits, repeated to fill a plan of 2^(2 + logn%11)
// points, over the plan's twiddles.
func FuzzFFTPassKernels(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint8(3))
	f.Add(make([]byte, 64), uint8(8))
	f.Fuzz(func(t *testing.T, raw []byte, logn uint8) {
		v := fuzzComplex(raw)
		if len(v) == 0 {
			return
		}
		n := 4 << (logn % 11)
		x := make([]complex128, n)
		for i := range x {
			x[i] = v[i%len(v)]
		}
		checkPasses(t, x, NewFFT(n).forward)
	})
}
