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

// checkBracketPass runs bracketPass and bracketPassGeneric on xs with the
// bracket [lo, hi] and fails when their counts or gathered values differ.
func checkBracketPass(t testing.TB, xs []float64, lo, hi float64) {
	t.Helper()
	wantBuf, gotBuf := make([]float64, len(xs)), make([]float64, len(xs))
	wantIn, wantBelow := bracketPassGeneric(xs, wantBuf, lo, hi, 0, 0)
	gotIn, gotBelow := bracketPass(xs, gotBuf, lo, hi)
	if gotIn != wantIn || gotBelow != wantBelow {
		t.Fatalf("n=%d [%v, %v]: gathered %d with %d below, generic %d with %d", len(xs), lo, hi, gotIn, gotBelow, wantIn, wantBelow)
	}
	for i := range wantBuf[:wantIn] {
		if !sameFloat(gotBuf[i], wantBuf[i]) {
			t.Fatalf("n=%d [%v, %v]: gathered value %d = %v, generic %v", len(xs), lo, hi, i, gotBuf[i], wantBuf[i])
		}
	}
}

// TestBracketPassMatchesGeneric holds bracketPass's AVX2 path to
// bracketPassGeneric at every length from 0 to 130 and at 1024 and 4096, on
// random values, on values with ±0, subnormals, ±Inf, NaN and 1e±300 mixed
// in, on small integers that sit on the bracket's ends, and for brackets that
// gather none, some and all values, a one-point and an infinite one among
// them.
func TestBracketPassMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(63, 5))
	brackets := [][2]float64{{-0.5, 0.5}, {0, 0}, {1, 1}, {-1, 2}, {5, 9}, {math.Inf(-1), math.Inf(1)}, {math.Inf(-1), -1}, {math.Copysign(0, -1), 0}}
	lengths := []int{1024, 4096}
	for n := 0; n <= 130; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for trial := 0; trial < 16; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				switch trial % 4 {
				case 0:
					xs[i] = rng.NormFloat64()
				case 1:
					xs[i] = kernelValue(rng, 0.3)
				case 2:
					xs[i] = float64(rng.IntN(4) - 1)
				default:
					xs[i] = kernelValue(rng, 0.05)
				}
			}
			b := brackets[trial%len(brackets)]
			checkBracketPass(t, xs, b[0], b[1])
		}
	}
}

// FuzzBracketPass holds bracketPass's AVX2 path to bracketPassGeneric on
// arbitrary bits: raw gives the values, 8 bytes apiece, and a and b the
// bracket's ends in either order (a NaN end is not a bracket).
func FuzzBracketPass(f *testing.F) {
	f.Add(make([]byte, 72), 0.0, 1.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), math.Inf(-1), 1e300)
	f.Fuzz(func(t *testing.T, raw []byte, a, b float64) {
		if a != a || b != b {
			return
		}
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkBracketPass(t, xs, min(a, b), max(a, b))
	})
}

// checkPrunedFill runs prunedFillAVX2 and prunedFill into dst (its length a
// multiple of pad) from src and fails on the first value they disagree on.
func checkPrunedFill(t testing.TB, n, pad int, src []complex128) {
	t.Helper()
	rev := NewFFT(n).rev
	want, got := kernelSignal(rand.New(rand.NewPCG(1, 1)), n, 0), make([]complex128, n)
	prunedFill(want, src, rev, pad)
	prunedFillAVX2(got, src, rev, pad)
	if k := firstDiff(got, want); k >= 0 {
		t.Fatalf("n=%d pad=%d len(src)=%d: dst[%d] = %v, generic %v", n, pad, len(src), k, got[k], want[k])
	}
}

// TestPrunedFillMatchesGeneric holds prunedFillAVX2 to prunedFill at every
// plan size from 2 to 2^14 and every even pad, with src from one value to
// the most the pad allows, edge values mixed in.
func TestPrunedFillMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(63, 6))
	for n := 2; n <= 1<<14; n <<= 1 {
		for pad := 2; pad <= n; pad <<= 1 {
			for _, m := range []int{1, max(1, n/pad/2+1), n / pad} {
				checkPrunedFill(t, n, pad, kernelSignal(rng, m, 0.2))
			}
		}
	}
}

// FuzzPrunedFill holds prunedFillAVX2 to prunedFill on arbitrary source
// bits, for a plan of 2^(1 + logn%14) points and a pad of 2^(1 + logpad%logn).
func FuzzPrunedFill(f *testing.F) {
	f.Add([]byte("0123456789abcdef"), uint8(3), uint8(1))
	f.Add(make([]byte, 64), uint8(10), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, logn, logpad uint8) {
		src := fuzzComplex(raw)
		ln := 1 + int(logn%14)
		pad := 2 << (int(logpad) % ln)
		n := 1 << ln
		if len(src) == 0 || len(src) > n/pad {
			return
		}
		checkPrunedFill(t, n, pad, src)
	})
}

// checkFirstNotBelow runs firstNotBelow and firstNotBelowGeneric on xs and
// fails when they return different indices.
func checkFirstNotBelow(t testing.TB, xs []float64, thr float64) {
	t.Helper()
	if got, want := firstNotBelow(xs, thr), firstNotBelowGeneric(xs, thr); got != want {
		t.Fatalf("n=%d thr=%v: first value not below at %d, generic %d", len(xs), thr, got, want)
	}
}

// TestFirstNotBelowMatchesGeneric holds firstNotBelow's AVX2 path to
// firstNotBelowGeneric at every length from 0 to 130, with the first value
// not below the threshold at every position, NaN and a value equal to the
// threshold among them, and with none.
func TestFirstNotBelowMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(63, 7))
	hits := []float64{1, 0.5, math.NaN(), math.Inf(1), 1e300}
	for n := 0; n <= 130; n++ {
		for at := 0; at <= n; at++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 0.5 * rng.Float64()
				if rng.IntN(4) == 0 {
					xs[i] = kernelValue(rng, 0.5)
				}
				if i < at && !(xs[i] < 0.5) {
					xs[i] = -1
				}
			}
			if at < n {
				xs[at] = hits[at%len(hits)]
			}
			checkFirstNotBelow(t, xs, 0.5)
			checkFirstNotBelow(t, xs, math.Inf(-1))
			checkFirstNotBelow(t, xs, math.NaN())
		}
	}
}

// FuzzFirstNotBelow holds firstNotBelow's AVX2 path to firstNotBelowGeneric
// on arbitrary bits: raw gives the values, 8 bytes apiece.
func FuzzFirstNotBelow(f *testing.F) {
	f.Add(make([]byte, 72), 1.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), math.Inf(1))
	f.Fuzz(func(t *testing.T, raw []byte, thr float64) {
		xs := make([]float64, len(raw)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkFirstNotBelow(t, xs, thr)
	})
}
