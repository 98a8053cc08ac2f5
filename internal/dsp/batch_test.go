package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
)

func randWindows(seed uint64, lanes int, lens []int) [][]complex128 {
	rng := rand.New(rand.NewPCG(seed, 0xBA7C4))
	srcs := make([][]complex128, lanes)
	for i := range srcs {
		w := make([]complex128, lens[i%len(lens)])
		for j := range w {
			w[j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		srcs[i] = w
	}
	return srcs
}

// TestTransformPrunedBatchBitIdentical pins Compute's complex slab at the
// kernel level: every lane is bit-identical to a serial TransformPruned of
// the same window, across pruned and full-size sources, mixed lane lengths,
// and repeated reuse of the slab.
func TestTransformPrunedBatchBitIdentical(t *testing.T) {
	shapes := []struct {
		name  string
		padN  int
		lanes int
		lens  []int
	}{
		{"sf7-pruned", 2048, 8, []int{128}},
		{"sf9-pruned", 8192, 12, []int{512}},
		{"full-size", 1024, 4, []int{1024}},
		{"mixed-lanes", 4096, 9, []int{256, 512, 1024}},
		{"one-lane", 8192, 1, []int{512}},
		{"zero-lanes", 1024, 0, []int{1}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			f := NewFFT(sh.padN)
			bs := NewBatchSpectrum(f)
			srcs := randWindows(77, sh.lanes, sh.lens)
			want := make([]complex128, sh.padN)
			for pass := 0; pass < 2; pass++ { // second pass reuses the slab
				bs.Compute(srcs)
				if len(bs.spec) != sh.lanes*sh.padN {
					t.Fatalf("pass %d: slab length %d, want %d", pass, len(bs.spec), sh.lanes*sh.padN)
				}
				for i, src := range srcs {
					f.TransformPruned(want, src)
					lane := bs.spec[i*sh.padN : (i+1)*sh.padN]
					for j := range want {
						if lane[j] != want[j] {
							t.Fatalf("pass %d lane %d bin %d: batch %v, serial %v", pass, i, j, lane[j], want[j])
						}
					}
				}
			}
		})
	}
}

// TestBatchSpectrumMatchesSerial pins BatchSpectrum against the serial
// SpectrumInto path: complex lanes bit-identical to TransformPruned and
// magnitude lanes bit-identical to SpectrumInto's cmplx.Abs (math.Hypot).
func TestBatchSpectrumMatchesSerial(t *testing.T) {
	const padN = 8192
	f := NewFFT(padN)
	bs := NewBatchSpectrum(f)
	srcs := randWindows(13, 10, []int{512})
	// Shrinking then regrowing the grid must not corrupt lanes.
	for _, lanes := range []int{10, 3, 10} {
		bs.Compute(srcs[:lanes])
		if len(bs.spec) != lanes*padN || len(bs.mags) != lanes*padN {
			t.Fatalf("lanes=%d: slabs of %d and %d, want %d", lanes, len(bs.spec), len(bs.mags), lanes*padN)
		}
		spec := make([]complex128, padN)
		mags := make([]float64, padN)
		for i := 0; i < lanes; i++ {
			f.SpectrumInto(mags, spec, srcs[i])
			gotSpec, gotMags := bs.spec[i*padN:(i+1)*padN], bs.mags[i*padN:(i+1)*padN]
			for j := 0; j < padN; j++ {
				if gotSpec[j] != spec[j] {
					t.Fatalf("lanes=%d lane %d bin %d: spec %v, want %v", lanes, i, j, gotSpec[j], spec[j])
				}
				if gotMags[j] != mags[j] ||
					math.Signbit(gotMags[j]) != math.Signbit(mags[j]) {
					t.Fatalf("lanes=%d lane %d bin %d: mag %v, want %v", lanes, i, j, gotMags[j], mags[j])
				}
			}
		}
	}
}

// TestBatchSpectrumSteadyStateZeroAllocs: once the slabs have grown to the
// high-water lane count, recomputing a grid allocates nothing.
func TestBatchSpectrumSteadyStateZeroAllocs(t *testing.T) {
	const padN = 2048
	f := NewFFT(padN)
	bs := NewBatchSpectrum(f)
	srcs := randWindows(5, 8, []int{128})
	bs.Compute(srcs) // grow to high water
	allocs := testing.AllocsPerRun(10, func() {
		bs.Compute(srcs)
		bs.Compute(srcs[:3])
	})
	if allocs != 0 {
		t.Fatalf("steady-state Compute allocated %.1f allocs/op, want 0", allocs)
	}
}
