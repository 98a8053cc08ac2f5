package choir

// Property tests for the decision-preserving kernels (DESIGN.md §12): each
// is held to its error bound against the form it replaced, which survives
// here as the reference.

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"choir/internal/linalg"
	"choir/internal/lora"
)

func decoderForSF(sf lora.SpreadingFactor) *Decoder {
	p := lora.DefaultParams()
	p.SF = sf
	return MustNew(DefaultConfig(p))
}

// testWindow is a dechirped-looking window: a few tones, one of them split
// at a boundary, in noise. The first `zero` samples are masked out.
func testWindow(n, zero int, seed uint64) []complex128 {
	rng := rand.New(rand.NewPCG(seed, 0xC0B))
	x := make([]complex128, n)
	for t := 0; t < 3; t++ {
		f := rng.Float64() * float64(n)
		h1 := cmplx.Rect(0.5+rng.Float64(), 2*math.Pi*rng.Float64())
		h2 := cmplx.Rect(0.5+rng.Float64(), 2*math.Pi*rng.Float64())
		b := rng.IntN(n)
		for k := range x {
			h := h1
			if k >= b {
				h = h2
			}
			x[k] += h * cmplx.Rect(1, 2*math.Pi*f*float64(k)/float64(n))
		}
	}
	for k := range x {
		x[k] += complex(rng.NormFloat64(), rng.NormFloat64()) * 0.1
		if k < zero {
			x[k] = 0
		}
	}
	return x
}

// TestCombSpectrumMatchesPaddedSpectrum checks the comb identity behind
// combDecide: for every detune r, the N-point transform of the detuned
// window equals the padded spectrum at bins j·pad + r.
func TestCombSpectrumMatchesPaddedSpectrum(t *testing.T) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF9} {
		d := decoderForSF(sf)
		for _, zero := range []int{0, d.n / 3} {
			x := testWindow(d.n, zero, uint64(sf))
			padded := d.fft.TransformPruned(nil, x)
			var peak float64
			for _, v := range padded {
				peak = max(peak, cmplx.Abs(v))
			}
			for r := 0; r < d.pad; r++ {
				comb := d.combSpectrum(append([]complex128(nil), x...), r)
				for j, v := range comb {
					if e := cmplx.Abs(v - padded[j*d.pad+r]); e > 1e-12*peak {
						t.Fatalf("%v zero=%d r=%d bin %d: comb off by %.3g (peak %.3g)", sf, zero, r, j, e, peak)
					}
				}
			}
		}
	}
}

// TestCombDecideMatchesPaddedScan replays the scan combDecide replaced —
// the padded spectrum read at specAt(s + offset) for every symbol s — and
// requires the same decision, including offsets whose padded index wraps.
func TestCombDecideMatchesPaddedScan(t *testing.T) {
	d := decoderForSF(lora.SF8)
	n := float64(d.n)
	offsets := []float64{0, 0.49, 12.951, 37.03125, 200.5, n - 0.01, n - 0.04, n - 1}
	for seed := uint64(1); seed <= 4; seed++ {
		x := testWindow(d.n, int(seed%2)*d.n/4, seed)
		spec := d.fft.TransformPruned(nil, x)
		for _, off := range offsets {
			want, wantMag := -1, 0.0
			for s := 0; s < d.n; s++ {
				v := specAt(spec, math.Mod(float64(s)+off, n), d.pad, d.n)
				if m := real(v)*real(v) + imag(v)*imag(v); m > wantMag {
					want, wantMag = s, m
				}
			}
			if got := d.combDecide(append([]complex128(nil), x...), off); got != want {
				t.Errorf("seed %d offset %g: combDecide = %d, padded scan = %d", seed, off, got, want)
			}
		}
	}
	if got := d.combDecide(make([]complex128, d.n), 3.2); got != -1 {
		t.Errorf("all-zero window decided %d, want -1", got)
	}
}

// TestMagnitudesMatchHypot holds magnitudes to within 2 ulps of the
// math.Hypot it replaced, over every pairing of zeros, subnormals, ±1e±300,
// the edges of its square-root route, overflow, ±Inf and NaN, and over
// random values across the exponent range; NaN and ±Inf must come out as
// Hypot gives them.
func TestMagnitudesMatchHypot(t *testing.T) {
	d := decoderForSF(lora.SF7)
	parts := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-320, 0x1p-1022, 0x1p-511, 0x1p-510, 1e-300, -1e-300, 1e-160,
		1, -0.75, 1e150, 0x1p511, 1e154, 1e300, -1e300, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	var spec []complex128
	for _, re := range parts {
		for _, im := range parts {
			spec = append(spec, complex(re, im))
		}
	}
	rng := rand.New(rand.NewPCG(17, 0x4A6))
	for i := 0; i < 100000; i++ {
		scale := math.Pow(2, float64(rng.IntN(2100)-1075))
		spec = append(spec, complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale*math.Pow(2, float64(rng.IntN(120)-60))))
	}
	got := d.magnitudes(spec)
	var worst uint64
	for i, v := range spec {
		want := math.Hypot(real(v), imag(v))
		g := got[i]
		if math.IsNaN(want) || math.IsInf(want, 0) {
			if math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("|%v| = %v, Hypot gives %v", v, g, want)
			}
			continue
		}
		ulps := max(math.Float64bits(g), math.Float64bits(want)) - min(math.Float64bits(g), math.Float64bits(want))
		if g < 0 || math.IsNaN(g) || ulps > 2 {
			t.Fatalf("|%v| = %v, Hypot gives %v: more than 2 ulps apart", v, g, want)
		}
		worst = max(worst, ulps)
	}
	t.Logf("%d magnitudes, at most %d ulp(s) from Hypot", len(spec), worst)
}

// segmentFitDividing is the body segmentFit replaced: per-sample
// math.Sincos tones and two divisions per candidate boundary.
func segmentFitDividing(x []complex128, f float64) (h1, h2 complex128, i0 int) {
	n := len(x)
	prefix := make([]complex128, n+1)
	for k := 0; k < n; k++ {
		s, c := math.Sincos(-2 * math.Pi * f * float64(k))
		prefix[k+1] = prefix[k] + x[k]*complex(c, s)
	}
	total := prefix[n]
	best, bestScore := 0, math.Inf(-1)
	for i := 0; i <= n; i++ {
		var score float64
		if i > 0 {
			p := prefix[i]
			score += (real(p)*real(p) + imag(p)*imag(p)) / float64(i)
		}
		if i < n {
			s := total - prefix[i]
			score += (real(s)*real(s) + imag(s)*imag(s)) / float64(n-i)
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	i0 = best
	if i0 > 0 {
		h1 = prefix[i0] / complex(float64(i0), 0)
	}
	if i0 < n {
		h2 = (total - prefix[i0]) / complex(float64(n-i0), 0)
	}
	return h1, h2, i0
}

func TestSegmentFitMatchesDividingReference(t *testing.T) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF8, lora.SF10} {
		d := decoderForSF(sf)
		rng := rand.New(rand.NewPCG(uint64(sf), 5))
		// 1e-12 at SF7, scaled with N: the reference's math.Sincos argument
		// 2π·f·k has itself lost up to ε·2π·N radians to rounding by the end
		// of the window (1.4e-12 at SF10), which the kernel's tone has not.
		tol := 1e-12 * float64(d.n) / 128
		for trial := 0; trial < 40; trial++ {
			x := testWindow(d.n, 0, uint64(trial))
			fBins := rng.Float64() * float64(d.n)
			w1, w2, wi := segmentFitDividing(x, fBins/float64(d.n))
			h1, h2, i0 := d.segmentFit(x, d.tone(fBins))
			if i0 != wi {
				t.Fatalf("%v trial %d f=%g: boundary %d, reference %d", sf, trial, fBins, i0, wi)
			}
			if cmplx.Abs(h1-w1) > tol || cmplx.Abs(h2-w2) > tol {
				t.Fatalf("%v trial %d f=%g: gains (%v, %v), reference (%v, %v)", sf, trial, fBins, h1, h2, w1, w2)
			}
		}
	}
	// A pure tone scores the same at every boundary, ends included: the
	// empty side's zero table entry must leave the end scores finite, and
	// every non-empty segment must come back with unit gain.
	d := decoderForSF(lora.SF7)
	tone := append([]complex128(nil), d.tone(20.25)...)
	h1, h2, i0 := d.segmentFit(tone, tone)
	if (i0 > 0 && cmplx.Abs(h1-1) > 1e-12) || (i0 < d.n && cmplx.Abs(h2-1) > 1e-12) {
		t.Errorf("pure tone: i0=%d gains (%v, %v), want unit gain", i0, h1, h2)
	}
}

// TestSegmentScanIsExplainedEnergy holds the CUSUM scan to the quantity it
// replaced: the energy it reports is |h₁|²·i0 + |h₂|²·(N−i0) for the
// dividing form's gains, and its boundary is the dividing form's. On a
// window that one tone explains the score is flat up to rounding — every
// boundary is a maximum — so there the two boundaries need only score alike.
func TestSegmentScanIsExplainedEnergy(t *testing.T) {
	d := decoderForSF(lora.SF8)
	n := d.n
	rng := rand.New(rand.NewPCG(8, 0x5CA9))
	noise := make([]complex128, n)
	for k := range noise {
		noise[k] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	twoSeg := make([]complex128, n)
	for k, v := range d.tone(41.37) {
		h := complex(0.9, -0.2)
		if k >= 77 {
			h = complex(-0.3, 0.8)
		}
		twoSeg[k] = h*v + 0.05*noise[k]
	}
	single := append([]complex128(nil), d.tone(41.37)...)
	cases := []struct {
		name string
		x    []complex128
		f    float64
		flat bool
	}{
		{"two-segment", twoSeg, 41.37, false},
		{"two-segment, detuned probe", twoSeg, 41.6, false},
		{"three tones in noise", testWindow(n, 0, 3), 100.2, false},
		{"single tone", single, 41.37, true},
		{"all zero", make([]complex128, n), 12.5, false},
		{"noise only", noise, 200.75, false},
	}
	// explained scores boundary i on prefix sums the way the dividing form does.
	explained := func(prefix []complex128, i int) float64 {
		var e float64
		if i > 0 {
			h := prefix[i] / complex(float64(i), 0)
			e += (real(h)*real(h) + imag(h)*imag(h)) * float64(i)
		}
		if i < n {
			h := (prefix[n] - prefix[i]) / complex(float64(n-i), 0)
			e += (real(h)*real(h) + imag(h)*imag(h)) * float64(n-i)
		}
		return e
	}
	for _, c := range cases {
		w1, w2, wi := segmentFitDividing(c.x, c.f/float64(n))
		p1 := real(w1)*real(w1) + imag(w1)*imag(w1)
		p2 := real(w2)*real(w2) + imag(w2)*imag(w2)
		want := p1*float64(wi) + p2*float64(n-wi)
		prefix := tonePrefix(make([]complex128, n+1), c.x, d.tone(c.f))
		i0, energy, _ := d.segmentScan(prefix, nil, -1)
		// The reference's own Sincos argument rounding (see
		// TestSegmentFitMatchesDividingReference) is inside this bound too.
		if math.Abs(energy-want) > 1e-12*max(want, 1) {
			t.Errorf("%s: scan energy %.17g, dividing form %.17g", c.name, energy, want)
		}
		own := explained(prefix, i0)
		if math.Abs(energy-own) > 1e-12*max(own, 1) {
			t.Errorf("%s: scan energy %.17g, its own boundary's gains explain %.17g", c.name, energy, own)
		}
		switch ref := explained(prefix, wi); {
		case !c.flat && i0 != wi:
			t.Errorf("%s: boundary %d, dividing form %d", c.name, i0, wi)
		case c.flat && math.Abs(own-ref) > 1e-12*want:
			t.Errorf("%s: boundaries %d and %d of a flat score explain %g and %g", c.name, i0, wi, own, ref)
		}
	}
}

// summedGram is the Gram entry toneGram has in closed form, added up: the
// sum over [lo, hi) of conj(t_a)·t_b for two tones df bins apart.
func summedGram(fa, df float64, lo, hi, n int) complex128 {
	var sum complex128
	for i := lo; i < hi; i++ {
		ta := cmplx.Rect(1, 2*math.Pi*math.Mod(fa*float64(i), float64(n))/float64(n))
		tb := cmplx.Rect(1, 2*math.Pi*math.Mod((fa+df)*float64(i), float64(n))/float64(n))
		sum += cmplx.Conj(ta) * tb
	}
	return sum
}

func TestToneGramMatchesSummedGram(t *testing.T) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF8, lora.SF9, lora.SF10} {
		n := lora.Params{SF: sf}.N()
		ranges := []struct {
			name               string
			aLo, aHi, bLo, bHi int
		}{
			{"full", 0, n, 0, n},
			{"disjoint", 0, n / 4, n / 2, n},
			{"nested", 0, n, n / 3, n/3 + 17},
			{"adjacent", 0, n / 3, n / 3, n},
			{"overlapping", 5, n / 2, n / 3, n - 1},
			{"empty", 40, 40, 0, n},
			{"one sample", 0, 64, 63, n},
		}
		// Integer fa keeps the reference's per-sample phase argument exact.
		const fa = 5
		for _, df := range []float64{0, 1e-9, 0.3, 0.9, 1, 17.25, float64(n) - 0.5, -3.7, float64(n), 2.5 * float64(n)} {
			for _, r := range ranges {
				lo, hi := max(r.aLo, r.bLo), min(r.aHi, r.bHi)
				want := summedGram(fa, df, lo, hi, n)
				got := toneGram(df, lo, hi, n)
				if e := cmplx.Abs(got - want); e > 1e-12*float64(n) {
					t.Errorf("%v df=%g %s [%d,%d): closed form %v, summed %v (off by %.3g)", sf, df, r.name, lo, hi, got, want, e)
				}
			}
		}
	}
}

// explicitFit is the fit fitSegments replaced: the N×k design matrix of
// masked tones, handed to the allocating normal-equations reference.
func explicitFit(t testing.TB, d *Decoder, x []complex128, regs []segReg) []complex128 {
	a := linalg.NewMatrix(d.n, len(regs))
	for j, r := range regs {
		tone := d.tone(r.f)
		for i := r.lo; i < r.hi; i++ {
			a.Data[i*len(regs)+j] = tone[i]
		}
	}
	hs, err := linalg.LeastSquares(a, x)
	if err != nil {
		t.Fatalf("explicit least squares: %v", err)
	}
	return hs
}

// checkFit compares a fit with the explicit reference: gains within rel of
// the largest reference gain.
func checkFit(t testing.TB, what string, got, want []complex128, rel float64) {
	t.Helper()
	var scale float64
	for _, h := range want {
		scale = max(scale, cmplx.Abs(h))
	}
	for j := range want {
		if e := cmplx.Abs(got[j] - want[j]); e > rel*scale {
			t.Fatalf("%s: gain %d = %v, explicit least squares %v (off by %.3g of the largest gain %.3g)",
				what, j, got[j], want[j], e/scale, scale)
		}
	}
}

// spacedOffsets draws k offsets in [0, n) at least 0.9 bin apart (circularly).
func spacedOffsets(rng *rand.Rand, k, n int) []float64 {
	offs := make([]float64, 0, k)
	for len(offs) < k {
		f := rng.Float64() * float64(n)
		ok := true
		for _, g := range offs {
			if dist := math.Abs(math.Remainder(f-g, float64(n))); dist < 0.9 {
				ok = false
			}
		}
		if ok {
			offs = append(offs, f)
		}
	}
	return offs
}

func TestFitsMatchExplicitLeastSquares(t *testing.T) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF9} {
		d := decoderForSF(sf)
		rng := rand.New(rand.NewPCG(uint64(sf), 0xF175))
		for k := 1; k <= 14; k++ {
			x := testWindow(d.n, 0, uint64(k))
			offs := spacedOffsets(rng, k, d.n)
			regs := make([]segReg, k)
			for j, f := range offs {
				regs[j] = segReg{f: f, lo: 0, hi: d.n}
			}
			want := explicitFit(t, d, x, regs)
			got := append([]complex128(nil), d.fitChannels(x, offs)...)
			checkFit(t, "fitChannels", got, want, 1e-9)

			// Two masked regressors per user, split at a random boundary.
			regs = regs[:0]
			for _, f := range offs {
				b := 1 + rng.IntN(d.n-1)
				regs = append(regs, segReg{f: f, lo: 0, hi: b},
					segReg{f: math.Mod(f+float64(rng.IntN(d.n)), float64(d.n)), lo: b, hi: d.n})
			}
			want = explicitFit(t, d, x, regs)
			got = append([]complex128(nil), d.fitSegments(x, regs)...)
			checkFit(t, "fitSegments", got, want, 1e-9)
		}
		// A pair 1e-3 bin apart: the system's condition number is ~1e7 and
		// the gains are large and opposed; both forms must agree on them.
		x := testWindow(d.n, 0, 99)
		offs := []float64{37.2, 37.201, 90.5}
		regs := []segReg{{37.2, 0, d.n}, {37.201, 0, d.n}, {90.5, 0, d.n}}
		checkFit(t, "fitChannels, 1e-3-bin pair", d.fitChannels(x, offs), explicitFit(t, d, x, regs), 1e-9)
	}
	d := decoderForSF(lora.SF7)
	if hs := d.fitChannels(testWindow(d.n, 0, 1), nil); hs != nil {
		t.Errorf("no offsets: gains %v, want none", hs)
	}
}

// TestFitChannelsDuplicateOffsets pins what identical offsets return: their
// Gram matrix is singular but for the jitter, which shares the single-tone
// gain out between them — finite gains that sum to the fit of that tone
// alone (how evenly is rounding, amplified by ε·N/jitter ≈ 1e-4). This is why
// the fits carry no singular-system fallback.
func TestFitChannelsDuplicateOffsets(t *testing.T) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF10} {
		d := decoderForSF(sf)
		x := testWindow(d.n, 0, 7)
		for _, dup := range []int{2, 3, 8} {
			offs := []float64{200.5}
			for i := 0; i < dup; i++ {
				offs = append(offs, 37.3)
			}
			single := append([]complex128(nil), d.fitChannels(x, []float64{200.5, 37.3})...)
			hs := d.fitChannels(x, offs)
			var sum complex128
			for _, h := range hs[1:] {
				if cmplx.IsNaN(h) || cmplx.IsInf(h) {
					t.Fatalf("%v ×%d: gains %v", sf, dup, hs)
				}
				sum += h
			}
			if e := cmplx.Abs(sum - single[1]); e > 1e-9*cmplx.Abs(single[1]) {
				t.Errorf("%v ×%d: duplicates sum to %v, the tone alone fits %v", sf, dup, sum, single[1])
			}
			if e := cmplx.Abs(hs[0] - single[0]); e > 1e-9*cmplx.Abs(single[0]) {
				t.Errorf("%v ×%d: bystander gain %v, without duplicates %v", sf, dup, hs[0], single[0])
			}
		}
	}
}

// FuzzFitsMatchExplicitLeastSquares draws regressor frequencies, ranges and
// a window from the fuzz bytes and holds fitSegments to the explicit
// least-squares fit wherever that fit is well conditioned.
func FuzzFitsMatchExplicitLeastSquares(f *testing.F) {
	// Regressor count less one, then per regressor: integer bin,
	// fraction/256, two range ends in 255ths of the window; the rest seeds
	// the window.
	f.Add([]byte{1, 10, 0, 0, 128, 200, 64, 128, 255, 9})
	f.Add([]byte{2, 77, 13, 40, 90, 77, 13, 90, 255, 100, 128, 0, 255, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0, 255})
	f.Add([]byte{7, 1, 0, 0, 255, 3, 9, 0, 255, 5, 18, 0, 255, 7, 27, 0, 255, 9, 36, 0, 255, 11, 45, 0, 255, 13, 54, 0, 255, 15, 63, 0, 255, 42})
	d := decoderForSF(lora.SF7)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0])%8
		data = data[1:]
		if len(data) < 4*k {
			return
		}
		regs := make([]segReg, k)
		for j := range regs {
			lo, hi := int(data[2])*d.n/255, int(data[3])*d.n/255
			if lo > hi {
				lo, hi = hi, lo
			}
			regs[j] = segReg{f: float64(data[0]%128) + float64(data[1])/256, lo: lo, hi: hi}
			data = data[4:]
		}
		// Regressors that nearly coincide where they overlap (closer than
		// 0.9 of the overlap's own bin width) make the system ill
		// conditioned: both forms then return large gains that legitimately
		// differ, so the comparison is for separated ones.
		for a, ra := range regs {
			if ra.hi-ra.lo < 8 {
				return
			}
			for _, rb := range regs[:a] {
				overlap := min(ra.hi, rb.hi) - max(ra.lo, rb.lo)
				sep := math.Abs(math.Remainder(ra.f-rb.f, float64(d.n)))
				if overlap > 0 && sep*float64(overlap) < 0.9*float64(d.n) {
					return
				}
			}
		}
		var seed [8]byte
		copy(seed[:], data)
		x := testWindow(d.n, 0, binary.LittleEndian.Uint64(seed[:]))
		want := explicitFit(t, d, x, regs)
		checkFit(t, "fitSegments", d.fitSegments(x, regs), want, 1e-9)
	})
}

// fitChannelsOffsets are six tones at least 0.9 bin apart in an SF8 window:
// the highest collision order of the benchmark's heavy workload.
var fitChannelsOffsets = []float64{12.2, 13.15, 37.3, 90.75, 91.9, 201.4}

// TestFitKernelsZeroAllocs pins segmentFit, fitChannels, the golden search,
// the two-segment sweeps and the tone slots at zero heap allocations once the
// decoder's prefix buffer, fit workspace and slots have grown: one warm-up
// call each, then testing.AllocsPerRun must read 0. The slot rows alternate
// two frequency sets, so every call rebuilds its slots' tones.
func TestFitKernelsZeroAllocs(t *testing.T) {
	d := decoderForSF(lora.SF8)
	x := testWindow(d.n, 0, 1)
	tone := append([]complex128(nil), d.tone(37.3)...)
	var regs [2][]segReg
	var offs [2][]float64
	for i, f := range fitChannelsOffsets {
		b := 40 * (i + 1)
		regs[0] = append(regs[0], segReg{f: f, lo: 0, hi: b}, segReg{f: f + 1, lo: b, hi: d.n})
		regs[1] = append(regs[1], segReg{f: f + 0.5, lo: 0, hi: b}, segReg{f: f - 1, lo: b, hi: d.n})
		offs[0], offs[1] = append(offs[0], f), append(offs[1], f+0.25)
	}
	call := 0
	kernels := []struct {
		name string
		run  func()
	}{
		{"segmentFit", func() { d.segmentFit(x, tone) }},
		{"fitChannels, six tones", func() { d.fitChannels(x, fitChannelsOffsets) }},
		{"fitSegments, twelve masked tones into slots", func() { call++; d.fitSegments(x, regs[call%2]) }},
		{"segmentFitRefined into slot 13", func() { call++; d.segmentFitRefined(x, 37.3+float64(call%2), 13) }},
		{"slotTone", func() { call++; d.slotTone(14, 37.3+float64(call%2)) }},
		{"sweepSegments, six tones, frequency searched", func() { call++; d.sweepSegments(x, offs[call%2], true) }},
		{"sweepSegments, six tones, frequency fixed", func() { call++; d.sweepSegments(x, offs[call%2], false) }},
	}
	for _, k := range kernels {
		k.run()
		if allocs := testing.AllocsPerRun(10, k.run); allocs != 0 {
			t.Errorf("%s allocates %.1f times/op, want 0", k.name, allocs)
		}
	}
}

// BenchmarkSegmentFit is the kernel on its own, SF8 window.
func BenchmarkSegmentFit(b *testing.B) {
	d := decoderForSF(lora.SF8)
	x := testWindow(d.n, 0, 1)
	tone := append([]complex128(nil), d.tone(37.3)...)
	d.segmentFit(x, tone)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.segmentFit(x, tone)
	}
}

// BenchmarkFitChannels is the joint channel fit of Eqn. 2 at six tones
// against one SF8 window: six tones and correlations plus a 6×6 closed-form
// system.
func BenchmarkFitChannels(b *testing.B) {
	d := decoderForSF(lora.SF8)
	x := testWindow(d.n, 0, 1)
	d.fitChannels(x, fitChannelsOffsets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.fitChannels(x, fitChannelsOffsets)
	}
}
