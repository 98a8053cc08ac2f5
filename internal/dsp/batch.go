package dsp

import (
	"fmt"
	"math"
)

// This file implements the batched spectral layer: N same-plan forward
// transforms computed back-to-back from one contiguous slab. The decoder's
// hot loops (preamble scan, data-window peak extraction, team accumulation)
// all take the spectra of a whole grid of windows; computing the grid through one batched call keeps every lane's
// output (and magnitude row) in a single cache-friendly allocation, runs
// the pruned radix-2 kernel lane after lane while its twiddle and
// bit-reversal tables are hot, and collapses per-window bookkeeping
// (metric spans, scratch swaps) to once per grid.
//
// Bit-identity is structural, not numerical: each lane is produced by the
// exact TransformPruned kernel on the exact per-window input, only into a
// slab sub-slice instead of a shared scratch buffer. No operation is
// reordered, fused or re-associated within a lane, so batched spectra match
// the serial path bit for bit (the property the golden-trace fixtures pin
// end to end).

// TransformPrunedBatch computes the zero-padded forward DFT of every source
// window into one contiguous slab of len(srcs) lanes of f.Len() bins each:
// lane i occupies dst[i*f.Len() : (i+1)*f.Len()] and equals exactly
// TransformPruned(nil, srcs[i]). dst is allocated (or reallocated) when its
// length is not len(srcs)*f.Len() and returned. Lanes may have different
// source lengths; each is pruned independently. Sources must not alias dst.
func (f *FFT) TransformPrunedBatch(dst []complex128, srcs [][]complex128) []complex128 {
	need := len(srcs) * f.n
	if len(dst) != need {
		dst = make([]complex128, need)
	}
	for i, src := range srcs {
		f.TransformPruned(dst[i*f.n:(i+1)*f.n], src)
	}
	return dst
}

// BatchSpectrum owns the slabs behind a grid of padded spectra: one complex
// lane and one magnitude lane per source window, all contiguous. A
// BatchSpectrum is reusable — Compute grows the slabs to the largest lane
// count seen and recycles them afterwards, so steady-state grids allocate
// nothing — and is not safe for concurrent use (it is scratch, owned by one
// decoder like every other scratch buffer).
type BatchSpectrum struct {
	fft   *FFT
	lanes int
	spec  []complex128
	mags  []float64
}

// NewBatchSpectrum returns an empty grid over the given plan.
func NewBatchSpectrum(f *FFT) *BatchSpectrum {
	if f == nil {
		panic("dsp: NewBatchSpectrum with nil FFT")
	}
	return &BatchSpectrum{fft: f}
}

// Compute fills the grid: lane i becomes the pruned padded spectrum of
// srcs[i] plus its magnitude row. Previous contents are overwritten; lanes
// beyond len(srcs) from an earlier, larger grid become invalid.
func (b *BatchSpectrum) Compute(srcs [][]complex128) {
	n := b.fft.n
	need := len(srcs) * n
	if cap(b.spec) < need {
		b.spec = make([]complex128, need)
		b.mags = make([]float64, need)
	}
	b.spec = b.spec[:need]
	b.mags = b.mags[:need]
	b.lanes = len(srcs)
	b.fft.TransformPrunedBatch(b.spec, srcs)
	for i, v := range b.spec {
		b.mags[i] = math.Hypot(real(v), imag(v))
	}
}

// Spec returns lane i's complex spectrum (valid until the next Compute).
func (b *BatchSpectrum) Spec(i int) []complex128 {
	b.check(i)
	n := b.fft.n
	return b.spec[i*n : (i+1)*n]
}

// Mags returns lane i's magnitude spectrum (valid until the next Compute).
func (b *BatchSpectrum) Mags(i int) []float64 {
	b.check(i)
	n := b.fft.n
	return b.mags[i*n : (i+1)*n]
}

func (b *BatchSpectrum) check(i int) {
	if i < 0 || i >= b.lanes {
		panic(fmt.Sprintf("dsp: BatchSpectrum lane %d out of %d", i, b.lanes))
	}
}
