package choir

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/cpu"
	"choir/internal/lora"
)

// blockBounds', blockSums', magnitudes' and subtractTone's AVX2 kernels
// (scan_amd64.s) are exact-order: each must give its generic kernel's bits
// on any input. Two floats match when their bits are equal or both are NaN,
// as in scanrange_test.go.

func requireAVX2(t testing.TB) {
	t.Helper()
	if !cpu.AVX2 {
		t.Skip("no AVX2: the generic kernels are the only path")
	}
}

// sameBits reports whether a and b have equal bits or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// boundInput is one blockBounds call: nb blocks over 8·nb+1 boundaries.
type boundInput struct {
	prefix              []complex128
	cusum               [][2]float64
	wmax, blk           []float64
	tr, ti, tail, lower float64
}

// checkBlockBounds runs blockBounds and blockBoundsGeneric on one input and
// fails when their skip masks differ.
func checkBlockBounds(t testing.TB, in boundInput) {
	t.Helper()
	words := (len(in.wmax) + 63) / 64
	want, got := make([]uint64, words), make([]uint64, words)
	blockBoundsGeneric(want, in.prefix, in.cusum, in.wmax, in.blk, in.tr, in.ti, in.tail, in.lower, 0)
	for i := range got {
		got[i] = ^uint64(0) // blockBounds must clear what it does not set
	}
	blockBounds(got, in.prefix, in.cusum, in.wmax, in.blk, in.tr, in.ti, in.tail, in.lower)
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("%d blocks, lower %v: skip word %d = %#x, generic %#x", len(in.wmax), in.lower, w, got[w], want[w])
		}
	}
}

// TestBlockBoundsMatchesGeneric holds blockBounds' AVX2 path to
// blockBoundsGeneric at every block count from 0 to 140 and at 512 (SF12),
// across mask words, on random rows, on rows with ±0, subnormals, ±Inf, NaN
// and 1e±300 mixed in, and with lower bounds that skip none, some and all
// blocks, NaN and ±Inf among them, and one block's own bound with and without
// scanMargin.
func TestBlockBoundsMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(63, 1))
	lowers := []float64{0.5, 4, 40, 1e3, 0, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	counts := []int{512, 256}
	for nb := 0; nb <= 140; nb++ {
		counts = append(counts, nb)
	}
	for _, nb := range counts {
		for trial := 0; trial < 12; trial++ {
			edge := []float64{0, 0, 0.02, 0.3}[trial%4]
			in := boundInput{prefix: make([]complex128, 8*nb+1), cusum: make([][2]float64, 8*nb+1), wmax: make([]float64, nb), blk: make([]float64, nb)}
			for i := range in.prefix {
				in.prefix[i] = complex(scanValue(rng, edge, false), scanValue(rng, edge, false))
				in.cusum[i] = [2]float64{scanValue(rng, edge, false), 0}
			}
			for b := range in.wmax {
				in.wmax[b] = math.Abs(scanValue(rng, edge, false))
				in.blk[b] = 8 * math.Abs(scanValue(rng, edge, false))
			}
			in.tr, in.ti = scanValue(rng, edge, false), scanValue(rng, edge, false)
			in.tail = math.Abs(scanValue(rng, edge, false)) / 16
			in.lower = lowers[trial%len(lowers)]
			checkBlockBounds(t, in)
			if nb == 0 {
				continue
			}
			// A lower bound on one block's own bound times scanMargin, and
			// just above the bound without it: the margin and the strict
			// compare decide that block.
			b := rng.IntN(nb)
			devA := cusumDev(in.prefix[8*b], &in.cusum[8*b], in.tr, in.ti)
			devB := cusumDev(in.prefix[8*b+8], &in.cusum[8*b+8], in.tr, in.ti)
			r := 0.5 * (devA + devB + in.blk[b] + in.tail)
			for _, lower := range []float64{in.wmax[b] * (r * r) * scanMargin, in.wmax[b] * (r * r) * (1 + 0x1p-21)} {
				in.lower = lower
				checkBlockBounds(t, in)
			}
		}
	}
}

// FuzzBlockBounds holds blockBounds' AVX2 path to blockBoundsGeneric on
// arbitrary bits: raw's 8-byte words, read in turn and repeated, fill the
// prefix sums, the table rows, the block maxima and the block sums of
// nb%140 blocks.
func FuzzBlockBounds(f *testing.F) {
	f.Add(make([]byte, 64), uint8(16), 1.0, 0.0, 0.1, 3.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), uint8(65), -2.5, 1e300, 0.0, math.Inf(1))
	f.Fuzz(func(t *testing.T, raw []byte, nb uint8, tr, ti, tail, lower float64) {
		words := len(raw) / 8
		if words == 0 {
			return
		}
		k := 0
		next := func() float64 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*(k%words):]))
			k++
			return v
		}
		n := int(nb) % 140
		in := boundInput{prefix: make([]complex128, 8*n+1), cusum: make([][2]float64, 8*n+1), wmax: make([]float64, n), blk: make([]float64, n), tr: tr, ti: ti, tail: tail, lower: lower}
		for i := range in.prefix {
			in.prefix[i] = complex(next(), next())
			in.cusum[i] = [2]float64{next(), next()}
		}
		for b := range in.wmax {
			in.wmax[b], in.blk[b] = next(), next()
		}
		checkBlockBounds(t, in)
	})
}

// checkBlockSums runs blockSums and blockSumsGeneric over the whole blocks
// of x and fails on the first sum they disagree on.
func checkBlockSums(t testing.TB, x []complex128) {
	t.Helper()
	nb := len(x) / scanBlock
	want, got := make([]float64, nb), make([]float64, nb)
	blockSumsGeneric(want, x)
	blockSums(got, x)
	for b := range want {
		if !sameBits(got[b], want[b]) {
			t.Fatalf("%d blocks: sum %d = %v, generic %v", nb, b, got[b], want[b])
		}
	}
}

// TestBlockSumsMatchesGeneric holds blockSums' AVX2 path to
// blockSumsGeneric at every block count from 0 to 70 and at 512, on random
// samples and on samples with ±0, subnormals, ±Inf, NaN and 1e±300 mixed in.
func TestBlockSumsMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(63, 2))
	counts := []int{512}
	for nb := 0; nb <= 70; nb++ {
		counts = append(counts, nb)
	}
	for _, nb := range counts {
		for trial := 0; trial < 8; trial++ {
			x := make([]complex128, nb*scanBlock)
			edge := []float64{0, 0.02, 0.3, 0.9}[trial%4]
			for i := range x {
				x[i] = complex(scanValue(rng, edge, false), scanValue(rng, edge, false))
			}
			checkBlockSums(t, x)
		}
	}
}

// FuzzBlockSums holds blockSums' AVX2 path to blockSumsGeneric on arbitrary
// bits: raw gives the samples, 16 bytes apiece.
func FuzzBlockSums(f *testing.F) {
	f.Add(make([]byte, 512))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkBlockSums(t, complexWords(raw))
	})
}

// checkMagnitudes runs magnitudes on both kernel sets over spec and fails on
// the first magnitude they disagree on.
func checkMagnitudes(t testing.TB, d *Decoder, spec []complex128) {
	t.Helper()
	want := make([]float64, len(spec))
	magnitudesGeneric(want, spec)
	got := d.magnitudes(spec)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("n=%d: |%v| = %v, generic %v", len(spec), spec[i], got[i], want[i])
		}
	}
}

// TestMagnitudesKernelMatchesGeneric holds magnitudes' AVX2 path to
// magnitudesGeneric at every length from 0 to 130, on random values and on
// values with ±0, subnormals, ±Inf, NaN and 1e±300 mixed in, which must take
// math.Hypot; on values in the square-root route it must not fall back.
func TestMagnitudesKernelMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	d := decoderForSF(lora.SF7)
	rng := rand.New(rand.NewPCG(63, 3))
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 8; trial++ {
			edge := []float64{0, 0.01, 0.1, 0.5}[trial%4]
			spec := make([]complex128, n)
			for i := range spec {
				spec[i] = complex(scanValue(rng, edge, false), scanValue(rng, edge, false))
			}
			checkMagnitudes(t, d, spec)
		}
	}
	spec := make([]complex128, 64)
	for i := range spec {
		spec[i] = complex(1+rng.Float64(), rng.NormFloat64())
	}
	if bad := magnitudesAVX2(make([]float64, len(spec)), spec); bad != 0 {
		t.Errorf("magnitudesAVX2 flags values whose squares are normal: %d", bad)
	}
}

// FuzzMagnitudes holds magnitudes' AVX2 path to magnitudesGeneric on
// arbitrary bits: raw gives the spectrum, 16 bytes a value.
func FuzzMagnitudes(f *testing.F) {
	f.Add(make([]byte, 80))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"))
	d := decoderForSF(lora.SF7)
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkMagnitudes(t, d, complexWords(raw))
	})
}

// checkSubtractTone runs subtractTone and subtractToneGeneric on copies of x
// and fails on the first sample they disagree on.
func checkSubtractTone(t testing.TB, x, tone []complex128, h complex128) {
	t.Helper()
	want, got := append([]complex128(nil), x...), append([]complex128(nil), x...)
	subtractToneGeneric(want, tone, h)
	subtractTone(got, tone, h)
	for k := range want {
		if !sameBits(real(got[k]), real(want[k])) || !sameBits(imag(got[k]), imag(want[k])) {
			t.Fatalf("n=%d h=%v: x[%d] = %v, generic %v", len(x), h, k, got[k], want[k])
		}
	}
}

// TestSubtractToneMatchesGeneric holds subtractTone's AVX2 path to
// subtractToneGeneric at every length from 0 to 130, with a tone longer than
// x, on random values and on values with ±0, subnormals, ±Inf, NaN and
// 1e±300 mixed in, for unit, negated and edge-valued gains.
func TestSubtractToneMatchesGeneric(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewPCG(63, 4))
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 12; trial++ {
			edge := []float64{0, 0.05, 0.3}[trial%3]
			x, tone := make([]complex128, n), make([]complex128, n+trial%3)
			for i := range x {
				x[i] = complex(scanValue(rng, edge, false), scanValue(rng, edge, false))
			}
			for i := range tone {
				s, c := math.Sincos(rng.Float64() * 2 * math.Pi)
				tone[i] = complex(c, s)
				if rng.Float64() < edge {
					tone[i] = complex(scanValue(rng, 1, false), scanValue(rng, 1, false))
				}
			}
			h := complex(rng.NormFloat64(), rng.NormFloat64())
			switch trial % 4 {
			case 1:
				h = -h
			case 3:
				h = complex(scanValue(rng, 0.7, false), scanValue(rng, 0.7, false))
			}
			checkSubtractTone(t, x, tone, h)
		}
	}
}

// FuzzSubtractTone holds subtractTone's AVX2 path to subtractToneGeneric on
// arbitrary bits: the first half of raw's values is x, the second the tone.
func FuzzSubtractTone(f *testing.F) {
	f.Add(make([]byte, 96), 1.0, 0.0)
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"), -0.6, math.Inf(1))
	f.Fuzz(func(t *testing.T, raw []byte, hr, hi float64) {
		v := complexWords(raw)
		n := len(v) / 2
		checkSubtractTone(t, v[:n], v[n:2*n], complex(hr, hi))
	})
}

// complexWords reads complex values from raw, 16 bytes each.
func complexWords(raw []byte) []complex128 {
	x := make([]complex128, len(raw)/16)
	for i := range x {
		x[i] = complex(math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])))
	}
	return x
}
