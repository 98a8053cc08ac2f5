package dsp

import "math"

// BatchSpectrum owns the slabs behind a grid of padded spectra: one complex
// lane and one magnitude lane per source window, all contiguous. The decoder
// does not use it: each window's spectrum is computed on the lane that reads
// it. It stays declared only because the frozen benchmark/ package times
// Compute (ROADMAP item 9). Compute grows the slabs
// to the largest lane count seen and recycles them afterwards, so
// steady-state grids allocate nothing; a BatchSpectrum is not safe for
// concurrent use.
type BatchSpectrum struct {
	fft  *FFT
	spec []complex128
	mags []float64
}

// NewBatchSpectrum returns an empty grid over the given plan.
func NewBatchSpectrum(f *FFT) *BatchSpectrum {
	if f == nil {
		panic("dsp: NewBatchSpectrum with nil FFT")
	}
	return &BatchSpectrum{fft: f}
}

// Compute fills the grid: lane i, spec[i·n : (i+1)·n] and the same range of
// mags for n = the plan's length, becomes TransformPruned of srcs[i] and its
// magnitude row. Previous contents are overwritten.
func (b *BatchSpectrum) Compute(srcs [][]complex128) {
	n := b.fft.n
	need := len(srcs) * n
	if cap(b.spec) < need {
		b.spec = make([]complex128, need)
		b.mags = make([]float64, need)
	}
	b.spec = b.spec[:need]
	b.mags = b.mags[:need]
	for i, src := range srcs {
		b.fft.TransformPruned(b.spec[i*n:(i+1)*n], src)
	}
	for i, v := range b.spec {
		b.mags[i] = math.Hypot(real(v), imag(v))
	}
}
