// Package dsp provides the complex digital-signal-processing substrate used
// by the LoRa PHY and the Choir collision decoder: forward fast Fourier
// transforms, zero-padded spectra, peak detection and interpolation, tone
// synthesis and frequency shifts.
//
// Everything operates on []complex128 baseband IQ samples, critically sampled
// (sample rate == signal bandwidth) unless stated otherwise. The package is
// pure Go with no dependencies beyond the standard library.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"

	"choir/internal/cpu"
)

// NextPow2 returns the smallest power of two >= n. It panics if n <= 0 or if
// the result would overflow an int.
func NextPow2(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("dsp: NextPow2 of non-positive %d", n))
	}
	if n&(n-1) == 0 {
		return n
	}
	shift := bits.Len(uint(n))
	if shift >= bits.UintSize-1 {
		panic(fmt.Sprintf("dsp: NextPow2 of %d overflows", n))
	}
	return 1 << shift
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// FFT is a forward radix-2 transform plan of one length: the twiddle table
// and the bit-reversal permutation. The decoder builds few of them (one per
// spreading factor and padding level). A plan is read-only after NewFFT, so
// goroutines may share one and call its transforms concurrently.
type FFT struct {
	n       int
	logn    int
	forward []complex128 // e^{-2πi k/n} for k in [0, n/2)
	rev     []int        // bit-reversal permutation
}

// NewFFT precomputes tables for transforms of length n, which must be a
// power of two.
func NewFFT(n int) *FFT {
	if !IsPow2(n) {
		panic(fmt.Sprintf("dsp: FFT size %d is not a power of two", n))
	}
	f := &FFT{
		n:       n,
		logn:    bits.TrailingZeros(uint(n)),
		forward: make([]complex128, n/2),
		rev:     make([]int, n),
	}
	for k := 0; k < n/2; k++ {
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		f.forward[k] = complex(c, s)
	}
	for i := 0; i < n; i++ {
		f.rev[i] = int(bits.Reverse(uint(i)) >> (bits.UintSize - f.logn))
	}
	return f
}

// Transform computes the DFT of src into dst (allocated if nil or wrong
// length) and returns dst. src is not modified. The transform is unscaled.
func (f *FFT) Transform(dst, src []complex128) []complex128 {
	if len(src) != f.n {
		panic(fmt.Sprintf("dsp: FFT input length %d != size %d", len(src), f.n))
	}
	if len(dst) != f.n {
		dst = make([]complex128, f.n)
	}
	if &dst[0] == &src[0] {
		// In-place: permute via cycle swaps.
		for i, j := range f.rev {
			if i < j {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range f.rev {
			dst[i] = src[j]
		}
	}
	f.stages(dst, f.forward, 2)
	return dst
}

// stages runs the radix-2 butterfly passes from size fromSize up to the full
// transform length over an already bit-reverse-permuted buffer, two stages
// per pass over the buffer while two remain. A fused pass takes the four
// quarter-block elements that stage `size` and stage `2·size` connect, runs
// the first stage's two butterflies and then the second's two on them, and
// writes four: every butterfly sees the operands, twiddle and operation
// order it has in a one-stage-per-pass loop, so the result is bit-identical
// (TestFusedStagesBitIdentical) and half the walks over a buffer that does
// not fit the L1 cache disappear.
func (f *FFT) stages(dst, tw []complex128, fromSize int) {
	dst = dst[:f.n]
	twq := tw[f.n/4:] // twq[k] = tw[k+n/4]: the second stage's twiddles for its upper quarter
	size := fromSize
	for ; size<<1 <= f.n; size <<= 2 {
		if cpu.AVX2 && size >= 4 {
			radix22PassAVX2(dst, tw, twq, size>>1, f.n/(size<<1))
		} else {
			radix22Pass(dst, tw, twq, size)
		}
	}
	if size <= f.n { // an odd stage count leaves the last stage on its own
		if cpu.AVX2 && size >= 4 {
			radix2PassAVX2(dst, tw, size>>1, f.n/size)
		} else {
			radix2Pass(dst, tw, size)
		}
	}
}

// radix22Pass is one fused pass of stages: stage size and stage 2·size over
// every block of 2·size elements of dst (len n), tw the plan's twiddles and
// twq = tw[n/4:]. With AVX2 and size >= 4 stages runs radix22PassAVX2
// instead, two butterflies a step with the same twiddles, which gives this
// kernel's bits.
func radix22Pass(dst, tw, twq []complex128, size int) {
	n := len(dst)
	h := size >> 1
	step := n / (size << 1) // twiddle stride of stage 2·size; stage size strides twice that
	for start := 0; start < n; start += size << 1 {
		q0 := dst[start:][:h]
		q1 := dst[start+h:][:len(q0)]
		q2 := dst[start+2*h:][:len(q0)]
		q3 := dst[start+3*h:][:len(q0)]
		k := 0
		for j := range q0 {
			w := tw[2*k]
			b1, b3 := q1[j]*w, q3[j]*w
			a0, a1 := q0[j]+b1, q0[j]-b1
			a2, a3 := q2[j]+b3, q2[j]-b3
			c2, c3 := a2*tw[k], a3*twq[k]
			q0[j], q2[j] = a0+c2, a0-c2
			q1[j], q3[j] = a1+c3, a1-c3
			k += step
		}
	}
}

// radix2Pass is stages' lone last stage, size, over dst (len n). With AVX2
// and size >= 4 stages runs radix2PassAVX2 instead, which gives this
// kernel's bits.
func radix2Pass(dst, tw []complex128, size int) {
	n := len(dst)
	h := size >> 1
	step := n / size
	for start := 0; start < n; start += size {
		lo := dst[start:][:h]
		hi := dst[start+h:][:len(lo)]
		for j := range lo {
			a, b := lo[j], hi[j]*tw[j*step]
			lo[j], hi[j] = a+b, a-b
		}
	}
}

// TransformPruned computes the forward DFT of src zero-padded to the plan
// size n, skipping every butterfly whose inputs are structurally zero.
// It is exactly Transform applied to src ++ zeros, but prunes the first
// log2(pad) stages: after the bit-reversal permutation, each aligned block of
// pad = n/NextPow2(len(src)) outputs is the DFT of a stride-decimated
// subsequence of the padded input that contains at most one nonzero sample,
// and the DFT of (x, 0, …, 0) is the constant x — so those stages collapse
// to a broadcast fill. For the decoder's 7/8-zero inputs (pad 16) this
// removes 4 of the 11 stages of an SF7 transform plus the cost of zeroing
// and copying a padded scratch buffer.
//
// Results match Transform on the padded input bit-for-bit up to the sign of
// zero (the full transform can produce −0 where the pruned one writes +0;
// the values compare equal and are indistinguishable through any arithmetic
// other than math.Signbit). len(src) may be any length <= n; it is
// virtually padded to the next power of two for the pruning. src and dst
// must not alias.
func (f *FFT) TransformPruned(dst, src []complex128) []complex128 {
	m := len(src)
	if m == f.n {
		return f.Transform(dst, src)
	}
	if m > f.n {
		panic(fmt.Sprintf("dsp: pruned FFT input length %d > size %d", m, f.n))
	}
	if m == 0 {
		panic("dsp: pruned FFT of empty input")
	}
	if len(dst) != f.n {
		dst = make([]complex128, f.n)
	}
	pad := f.n / NextPow2(m)
	if cpu.AVX2 && pad >= 2 {
		prunedFillAVX2(dst, src, f.rev, pad)
	} else {
		prunedFill(dst, src, f.rev, pad)
	}
	f.stages(dst, f.forward, pad<<1)
	return dst
}

// prunedFill is TransformPruned's broadcast fill: block b of dst holds pad
// copies of the one (possibly virtual zero) nonzero sample of its decimated
// subsequence, whose source index is the bit reversal of b — i.e. rev at the
// block start. With AVX2 and pad >= 2 TransformPruned runs prunedFillAVX2
// instead, one 32-byte store per two copies.
func prunedFill(dst, src []complex128, rev []int, pad int) {
	for b := 0; b < len(dst)/pad; b++ {
		var v complex128
		if j := rev[b*pad]; j < len(src) {
			v = src[j]
		}
		blk := dst[b*pad : b*pad+pad]
		for t := range blk {
			blk[t] = v
		}
	}
}

// SpectrumInto computes the magnitude spectrum of src zero-padded to the
// plan size into dst, using spec as complex scratch. Both dst and spec are
// allocated when nil or of the wrong length; dst is returned. This is the
// allocation-free core of PaddedSpectrum: hot paths hold an *FFT plus two
// reusable buffers and pay neither the padded-buffer copy nor any
// allocation.
func (f *FFT) SpectrumInto(dst []float64, spec, src []complex128) []float64 {
	spec = f.TransformPruned(spec, src)
	if len(dst) != f.n {
		dst = make([]float64, f.n)
	}
	for i, v := range spec {
		dst[i] = cmplx.Abs(v)
	}
	return dst
}

// PaddedSpectrum returns the magnitude spectrum of x zero-padded to
// pad*len(x) rounded up to a power of two. Zero-padding interpolates the
// spectrum so that peaks that fall between bins of the natural transform
// become resolvable — the mechanism Choir uses to read fractional frequency
// offsets (Sec. 5.1 of the paper). The returned slice has length
// NextPow2(pad*len(x)); bin b corresponds to frequency b/pad (in natural
// bins of the unpadded transform).
// Deprecated for decoder-internal paths: it allocates a fresh plan and
// spectrum on every call. Hot paths should hold an *FFT and call
// SpectrumInto with reused buffers instead.
func PaddedSpectrum(x []complex128, pad int) []float64 {
	if pad < 1 {
		panic(fmt.Sprintf("dsp: padding factor %d < 1", pad))
	}
	n := NextPow2(pad * len(x))
	return NewFFT(n).SpectrumInto(nil, nil, x)
}
