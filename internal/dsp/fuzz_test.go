package dsp

import (
	"math"
	"testing"
)

// fuzzSpectrum expands raw bytes into a non-negative magnitude spectrum —
// the only domain FindPeaks is specified for.
func fuzzSpectrum(data []byte) []float64 {
	spec := make([]float64, len(data))
	for i, b := range data {
		spec[i] = float64(b) * 0.5
	}
	return spec
}

// FuzzFindPeaks asserts FindPeaks' contract for arbitrary spectra and
// configurations: never panics, reports bins inside the natural range,
// orders peaks strongest first, honors Max and MinSeparation.
func FuzzFindPeaks(f *testing.F) {
	f.Add([]byte{0, 10, 200, 10, 0, 0, 30, 0}, uint8(1), uint8(0), uint16(900), uint16(100))
	f.Add([]byte{255, 0, 255, 0}, uint8(4), uint8(2), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, padRaw, maxRaw uint8, sepRaw, threshRaw uint16) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		spec := fuzzSpectrum(data)
		cfg := PeakConfig{
			Pad:           1 + int(padRaw)%16,
			MinSeparation: float64(sepRaw) / 1000,
			Threshold:     float64(threshRaw) / 100,
			Max:           int(maxRaw) % 8,
		}
		peaks := FindPeaks(spec, cfg)

		natural := float64(len(spec)) / float64(cfg.Pad)
		if cfg.Max > 0 && len(peaks) > cfg.Max {
			t.Fatalf("%d peaks exceed Max=%d", len(peaks), cfg.Max)
		}
		for i, p := range peaks {
			if math.IsNaN(p.Bin) || p.Bin < 0 || p.Bin >= natural+1 {
				t.Fatalf("peak %d at bin %g outside [0, %g)", i, p.Bin, natural)
			}
			if math.IsNaN(p.Mag) || math.IsInf(p.Mag, 0) {
				t.Fatalf("peak %d has non-finite magnitude %g", i, p.Mag)
			}
			if i > 0 && p.Mag > peaks[i-1].Mag {
				t.Fatalf("peaks not sorted strongest-first at %d", i)
			}
			for j := 0; j < i; j++ {
				if CircularBinDist(p.Bin, peaks[j].Bin, natural) < cfg.MinSeparation-1e-9 {
					t.Fatalf("peaks %d and %d closer than MinSeparation %g", j, i, cfg.MinSeparation)
				}
			}
		}
	})
}

// FuzzNoiseFloor asserts the floor estimate is always a finite value inside
// the spectrum's range and never mutates its input.
func FuzzNoiseFloor(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		spec := fuzzSpectrum(data)
		orig := append([]float64(nil), spec...)
		floor := NoiseFloor(spec)
		lo, hi := spec[0], spec[0]
		for i, v := range spec {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
			if v != orig[i] {
				t.Fatal("NoiseFloor mutated its input")
			}
		}
		if floor < lo || floor > hi {
			t.Fatalf("floor %g outside [%g, %g]", floor, lo, hi)
		}
	})
}

// FuzzPrunedFFTMatchesFull asserts TransformPruned(x) equals
// Transform(x ++ zeros) within 1e-12 relative error for arbitrary inputs and
// padded plan sizes.
func FuzzPrunedFFTMatchesFull(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{255, 0, 128, 64}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, padLog uint8) {
		if len(data) < 2 || len(data) > 1024 {
			return
		}
		m := len(data) / 2
		src := make([]complex128, m)
		for i := 0; i < m; i++ {
			src[i] = complex(float64(data[2*i])-128, float64(data[2*i+1])-128)
		}
		n := NextPow2(m) << (padLog % 5)
		plan := NewFFT(n)

		padded := make([]complex128, n)
		copy(padded, src)
		want := plan.Transform(nil, padded)
		got := plan.TransformPruned(nil, src)

		scale := 0.0
		for _, v := range want {
			if a := cmplxAbs(v); a > scale {
				scale = a
			}
		}
		tol := 1e-12 * scale
		if tol == 0 {
			tol = 1e-12
		}
		for k := range want {
			if d := cmplxAbs(got[k] - want[k]); d > tol {
				t.Fatalf("m=%d n=%d: bin %d differs by %g (scale %g)", m, n, k, d, scale)
			}
		}
	})
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
