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

// floorValues expands a byte pattern into n (at most 4096) spectrum values:
// value i is data[i mod len(data)]/2 plus ramp·i/16, and byte 255 is NaN. A
// pattern as long as the spectrum spells out any spectrum of byte values; a
// short one repeats, with the ramp making a layout ascend or descend.
func floorValues(data []byte, n uint16, ramp int8) []float64 {
	if len(data) == 0 {
		return nil
	}
	spec := make([]float64, min(int(n), 4096))
	for i := range spec {
		b := data[i%len(data)]
		spec[i] = float64(b)*0.5 + float64(ramp)*float64(i)/16
		if b == 255 {
			spec[i] = math.NaN()
		}
	}
	return spec
}

// FuzzNoiseFloor pins the floor estimate's value: bit for bit the
// sort-based median on NaN-free spectra of up to 4096 values (past the
// bracket's cut-over), and exactly what MedianInPlace over a copy returns on
// spectra holding NaN. The spectrum is never mutated.
func FuzzNoiseFloor(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint16(5), int8(0))
	f.Add([]byte{0}, uint16(4096), int8(1))    // ascending
	f.Add([]byte{0}, uint16(4096), int8(-3))   // descending
	f.Add([]byte{7}, uint16(4096), int8(0))    // all equal
	f.Add([]byte{0, 1}, uint16(4095), int8(0)) // two-valued
	// Periodic layouts: every sampled bin above the median, and stride 16.
	for _, period := range []int{bracketStride, 16} {
		pattern := []byte{200}
		for len(pattern) < period {
			pattern = append(pattern, byte(len(pattern)))
		}
		f.Add(pattern, uint16(4096), int8(0))
	}
	noise := make([]byte, 97)
	for i := range noise {
		noise[i] = byte(i * 7919 % 251)
	}
	f.Add(noise, uint16(3001), int8(0))
	f.Add(append([]byte{255}, noise[1:]...), uint16(4096), int8(0))                            // NaN on a sampled bin
	f.Add(append(noise[:40:40], append([]byte{255}, noise[41:]...)...), uint16(2048), int8(2)) // NaN between them
	f.Add([]byte("\xff0000000"), uint16(4096), int8(91))                                       // NaNs leave the sample's two ranks unordered
	f.Fuzz(func(t *testing.T, data []byte, n uint16, ramp int8) {
		spec := floorValues(data, n, ramp)
		orig := append([]float64(nil), spec...)
		floor := NoiseFloorScratch(spec, nil)
		hasNaN := false
		for i, v := range spec {
			hasNaN = hasNaN || math.IsNaN(v)
			if math.Float64bits(v) != math.Float64bits(orig[i]) {
				t.Fatal("NoiseFloorScratch mutated its input")
			}
		}
		want := sortMedian(spec)
		if hasNaN {
			want = MedianInPlace(orig)
		}
		if math.Float64bits(floor) != math.Float64bits(want) {
			t.Fatalf("n=%d NaN=%v: floor %g, want %g", len(spec), hasNaN, floor, want)
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
