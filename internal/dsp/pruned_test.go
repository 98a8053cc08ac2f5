package dsp

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sort"
	"testing"
)

// decoderTransformShapes enumerates every (symbol size, padded size)
// combination the Choir decoder can request: SF7..SF12 symbol sizes crossed
// with the padding factors exercised by configs and ablations (4, 8, 10, 16;
// the FFT length is the next power of two of pad*n).
func decoderTransformShapes() [][2]int {
	var shapes [][2]int
	for sf := 7; sf <= 12; sf++ {
		n := 1 << sf
		for _, pad := range []int{4, 8, 10, 16} {
			shapes = append(shapes, [2]int{n, NextPow2(pad * n)})
		}
	}
	return shapes
}

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// TestTransformPrunedMatchesFull is the property test of the pruning
// optimization: prunedFFT(x ++ zeros) == Transform(x ++ zeros) to 1e-12
// across all SF/pad combinations the decoder uses.
func TestTransformPrunedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0xF0F0))
	for _, shape := range decoderTransformShapes() {
		m, n := shape[0], shape[1]
		f := NewFFT(n)
		x := randomSignal(rng, m)

		padded := make([]complex128, n)
		copy(padded, x)
		want := f.Transform(nil, padded)
		got := f.TransformPruned(nil, x)

		scale := 0.0
		for _, v := range want {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-12*scale {
				t.Fatalf("m=%d n=%d: bin %d differs by %g (|want|max=%g)", m, n, k, d, scale)
			}
		}
	}
}

// TestTransformPrunedBitIdentical asserts the stronger property the golden
// traces rely on: for the decoder's power-of-two input lengths the pruned
// transform is bit-for-bit the full transform of the zero-padded input (the
// skipped butterflies only ever add exact zeros).
func TestTransformPrunedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0xBEEF))
	for _, shape := range decoderTransformShapes() {
		m, n := shape[0], shape[1]
		f := NewFFT(n)
		x := randomSignal(rng, m)

		padded := make([]complex128, n)
		copy(padded, x)
		want := f.Transform(nil, padded)
		got := f.TransformPruned(nil, x)
		for k := range want {
			if real(got[k]) != real(want[k]) || imag(got[k]) != imag(want[k]) {
				t.Fatalf("m=%d n=%d: bin %d = %v, want %v (bit mismatch)", m, n, k, got[k], want[k])
			}
		}
	}
}

// TestTransformPrunedNonPow2Input covers the virtual-padding path: input
// lengths that are not a power of two are padded up before pruning.
func TestTransformPrunedNonPow2Input(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0x1234))
	for _, m := range []int{1, 3, 5, 100, 129, 1000} {
		n := NextPow2(16 * m)
		f := NewFFT(n)
		x := randomSignal(rng, m)
		padded := make([]complex128, n)
		copy(padded, x)
		want := f.Transform(nil, padded)
		got := f.TransformPruned(nil, x)
		scale := 0.0
		for _, v := range want {
			if a := cmplx.Abs(v); a > scale {
				scale = a
			}
		}
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > 1e-12*scale {
				t.Fatalf("m=%d n=%d: bin %d differs by %g", m, n, k, d)
			}
		}
	}
}

// TestTransformPrunedFullLength checks the degenerate no-padding case
// delegates to the plain transform.
func TestTransformPrunedFullLength(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0x5678))
	f := NewFFT(256)
	x := randomSignal(rng, 256)
	want := f.Transform(nil, x)
	got := f.TransformPruned(nil, x)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("bin %d = %v, want %v", k, got[k], want[k])
		}
	}
}

// TestSpectrumIntoMatchesPaddedSpectrum pins the compatibility contract the
// decoder migration relies on: SpectrumInto through a reused plan equals
// PaddedSpectrum bit-for-bit.
func TestSpectrumIntoMatchesPaddedSpectrum(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0x9999))
	for _, m := range []int{128, 256} {
		for _, pad := range []int{4, 10, 16} {
			x := randomSignal(rng, m)
			want := PaddedSpectrum(x, pad)
			n := NextPow2(pad * m)
			f := NewFFT(n)
			spec := make([]complex128, n)
			dst := make([]float64, n)
			got := f.SpectrumInto(dst, spec, x)
			if &got[0] != &dst[0] {
				t.Fatal("SpectrumInto did not reuse dst")
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("m=%d pad=%d: bin %d = %g, want %g", m, pad, k, got[k], want[k])
				}
			}
		}
	}
}

// sortMedian is the median by definition: the middle value of a sorted copy,
// or the mean of the two middle values for an even length (0 when empty).
func sortMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return 0.5 * (s[mid-1] + s[mid])
}

// TestMedianInPlaceMatchesMedian cross-checks quickselect against the
// sort-based median on random and adversarial inputs.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 0xAAAA))
	check := func(xs []float64) {
		t.Helper()
		want := sortMedian(xs)
		got := MedianInPlace(append([]float64(nil), xs...))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MedianInPlace=%g, sorted median=%g for %v", got, want, xs)
		}
	}
	check(nil)
	check([]float64{1})
	check([]float64{2, 1})
	check([]float64{3, 3, 3, 3})
	check([]float64{5, 4, 3, 2, 1, 0})
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(257)
		xs := make([]float64, n)
		for i := range xs {
			// Heavy duplication stresses the three-way partition.
			xs[i] = float64(rng.IntN(8))
		}
		check(xs)
	}
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 2048)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		check(xs)
	}
}

// TestNoiseFloorScratchMatches pins that the noise floor is the sort-based
// median, bit for bit, on both sides of the bracket's cut-over and on
// layouts the bracket misses, and that the spectrum is left untouched.
func TestNoiseFloorScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 0xBBBB))
	layouts := []struct {
		name string
		at   func(i int) float64
	}{
		{"exponential", func(int) float64 { return rng.ExpFloat64() }},
		{"peaky", func(i int) float64 {
			if i%97 == 3 {
				return 1e6 * rng.Float64()
			}
			return rng.ExpFloat64()
		}},
		// Every sampled bin is the spectrum's largest: the bracket misses.
		{"sampled-bin spikes", func(i int) float64 {
			if i%bracketStride == 0 {
				return 1e9 + float64(i)
			}
			return rng.Float64()
		}},
		{"stride-16 spikes", func(i int) float64 {
			if i%16 == 0 {
				return 1e9 + float64(i)
			}
			return rng.Float64()
		}},
		{"ascending", func(i int) float64 { return float64(i) }},
		{"two-valued", func(int) float64 { return float64(rng.IntN(2)) }},
		{"all equal", func(int) float64 { return 3.5 }},
		{"heavy ties", func(int) float64 { return float64(rng.IntN(6)) }},
		{"ramp mod 17", func(i int) float64 { return float64(i % 17) }},
	}
	for _, l := range layouts {
		name, at := l.name, l.at
		for _, n := range []int{1, 2, 1023, bracketMin - 1, bracketMin, bracketMin + 1, 2048, 16384, 16385} {
			spec := make([]float64, n)
			for i := range spec {
				spec[i] = at(i)
			}
			orig := append([]float64(nil), spec...)
			want := sortMedian(spec)
			got := NoiseFloorScratch(spec, make([]float64, n))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: NoiseFloorScratch=%g, sorted median=%g", name, n, got, want)
			}
			if g := NoiseFloorScratch(spec, nil); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("%s n=%d: NoiseFloorScratch(nil scratch)=%g, sorted median=%g", name, n, g, want)
			}
			for i := range spec {
				if spec[i] != orig[i] {
					t.Fatalf("%s n=%d: NoiseFloorScratch mutated its input", name, n)
				}
			}
		}
	}
}

// TestBracketMedianRoute pins which spectra the bracket answers: a noise-like
// one, whether or not the rank lands near the sample's middle, and not one
// whose sampled bins all sit above the median or one holding a NaN.
func TestBracketMedianRoute(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 0xDDDD))
	for _, n := range []int{bracketMin, 2048, 16384} {
		spec := make([]float64, n)
		for i := range spec {
			spec[i] = rng.ExpFloat64()
		}
		if m, ok := bracketMedian(spec, make([]float64, n)); !ok || m != sortMedian(spec) {
			t.Errorf("n=%d noise: bracket (%g, %v), sorted median %g", n, m, ok, sortMedian(spec))
		}
		spiked := append([]float64(nil), spec...)
		for i := 0; i < n; i += bracketStride {
			spiked[i] = 1e9
		}
		if _, ok := bracketMedian(spiked, make([]float64, n)); ok {
			t.Errorf("n=%d: a sample above the median still claimed the bracket", n)
		}
		for _, at := range []int{0, 5, n - 1} {
			nan := append([]float64(nil), spec...)
			nan[at] = math.NaN()
			if _, ok := bracketMedian(nan, make([]float64, n)); ok {
				t.Errorf("n=%d: a NaN at %d still claimed the bracket", n, at)
			}
		}
	}
	// Middle ranks one off the bracket's edges: every sampled bin is M, so
	// the bracket is exactly [M, M], and the unsampled bins put the lower
	// middle just below it, or the upper middle just above it.
	const n, M = 2048, 1000.0
	sampled := (n + bracketStride - 1) / bracketStride
	for _, below := range []int{n / 2, n/2 - sampled} {
		spec, j := make([]float64, n), 0
		for i := range spec {
			switch {
			case i%bracketStride == 0:
				spec[i] = M
			case j < below:
				spec[i] = float64(1 + j%999)
				j++
			default:
				spec[i] = 2000 + float64(i)
			}
		}
		if m, ok := bracketMedian(spec, make([]float64, n)); ok {
			t.Errorf("%d below the bracket: it claimed median %g, sorted median %g", below, m, sortMedian(spec))
		}
		if got, want := NoiseFloorScratch(spec, nil), sortMedian(spec); got != want {
			t.Errorf("%d below the bracket: NoiseFloorScratch=%g, sorted median=%g", below, got, want)
		}
	}
}

// TestFindPeaksScratchMatches pins that the scratch variant reports exactly
// FindPeaks' peaks and reuses its buffers across calls.
func TestFindPeaksScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 0xCCCC))
	spec := make([]float64, 2048)
	for i := range spec {
		spec[i] = rng.ExpFloat64()
	}
	spec[100], spec[700], spec[1500] = 50, 40, 30
	cfg := PeakConfig{Pad: 16, MinSeparation: 0.9, Threshold: 5, Max: 8}
	want := FindPeaks(spec, cfg)
	var s PeakScratch
	for round := 0; round < 3; round++ {
		got := FindPeaksScratch(&s, spec, cfg)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d peaks, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: peak %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestKernelsZeroAllocs pins the decode path's dsp kernels at zero heap
// allocations once their destinations are sized: one warm-up call each, then
// testing.AllocsPerRun must read 0. Shapes are an SF9 window at the decoder's
// 16× padding; the noise floor is held on both of its routes, and the peak
// search on the six-tone spectrum it is written for.
func TestKernelsZeroAllocs(t *testing.T) {
	const m, padN = 512, 8192
	f := NewFFT(padN)
	x := benchInput(m)
	padded := make([]complex128, padN)
	spec := make([]complex128, padN)
	mags := make([]float64, padN)
	tone := make([]complex128, 1024)

	rng := rand.New(rand.NewPCG(7, 0xF100D))
	noise := make([]float64, padN)
	for i := range noise {
		noise[i] = rng.ExpFloat64()
	}
	spiked := append([]float64(nil), noise...)
	for i := 0; i < padN; i += bracketStride {
		spiked[i] = 1e9
	}
	scratch := make([]float64, padN)
	if _, ok := bracketMedian(noise, scratch); !ok {
		t.Fatal("noise spectrum missed the bracket route")
	}
	if _, ok := bracketMedian(spiked, scratch); ok {
		t.Fatal("spiked spectrum took the bracket route, want the copy route")
	}

	tones := append([]complex128(nil), x...)
	for _, b := range []float64{12.2, 13.15, 37.3, 190.75, 191.9, 401.4} {
		Add(tones, Scale(Tone(nil, m, b/m, 0), 8))
	}
	peakMags := f.SpectrumInto(nil, nil, tones)
	cfg := PeakConfig{Pad: padN / m, MinSeparation: 0.9, Threshold: 5 * NoiseFloorScratch(peakMags, nil), Max: 16}
	var ps PeakScratch
	if got := len(FindPeaksScratch(&ps, peakMags, cfg)); got < 6 {
		t.Fatalf("found %d peaks of six tones", got)
	}

	kernels := []struct {
		name string
		run  func()
	}{
		{"TransformPruned", func() { f.TransformPruned(spec, x) }},
		{"Transform, padded", func() {
			clear(padded)
			copy(padded, x)
			f.Transform(spec, padded)
		}},
		{"SpectrumInto", func() { f.SpectrumInto(mags, spec, x) }},
		{"NoiseFloorScratch, bracket route", func() { NoiseFloorScratch(noise, scratch) }},
		{"NoiseFloorScratch, copy route", func() { NoiseFloorScratch(spiked, scratch) }},
		{"Tone", func() { Tone(tone, len(tone), 0.1337, 0) }},
		{"FindPeaksScratch", func() { FindPeaksScratch(&ps, peakMags, cfg) }},
	}
	for _, k := range kernels {
		k.run()
		if allocs := testing.AllocsPerRun(10, k.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times/op, want 0", k.name, allocs)
		}
	}
}

// --- FFT kernel benchmarks (zero allocations: TestKernelsZeroAllocs) ---

func benchInput(m int) []complex128 {
	rng := rand.New(rand.NewPCG(31, 0xDDDD))
	return randomSignal(rng, m)
}

func BenchmarkFFTFullPadded(b *testing.B) {
	// The pre-optimization decoder hot path: zero a padded buffer, copy the
	// symbol in, run the full transform.
	m, n := 128, 2048
	f := NewFFT(n)
	x := benchInput(m)
	padded := make([]complex128, n)
	dst := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range padded {
			padded[j] = 0
		}
		copy(padded, x)
		f.Transform(dst, padded)
	}
}

func BenchmarkFFTPruned(b *testing.B) {
	m, n := 128, 2048
	f := NewFFT(n)
	x := benchInput(m)
	dst := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TransformPruned(dst, x)
	}
}

func BenchmarkSpectrumInto(b *testing.B) {
	m, n := 128, 2048
	f := NewFFT(n)
	x := benchInput(m)
	spec := make([]complex128, n)
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SpectrumInto(dst, spec, x)
	}
}

func BenchmarkNoiseFloorScratch(b *testing.B) {
	rng := rand.New(rand.NewPCG(37, 0xEEEE))
	spec := make([]float64, 2048)
	for i := range spec {
		spec[i] = rng.ExpFloat64()
	}
	scratch := make([]float64, len(spec))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NoiseFloorScratch(spec, scratch)
	}
}
