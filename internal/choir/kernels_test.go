package choir

// Property tests for the decision-preserving kernels (DESIGN.md §12): each
// is held to its error bound against the form it replaced, which survives
// here as the reference.

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

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

// segmentFitDividing is the body SegmentFit replaced: per-sample
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
			h1, h2, i0 := d.SegmentFit(x, d.tone(fBins))
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
	h1, h2, i0 := d.SegmentFit(tone, tone)
	if (i0 > 0 && cmplx.Abs(h1-1) > 1e-12) || (i0 < d.n && cmplx.Abs(h2-1) > 1e-12) {
		t.Errorf("pure tone: i0=%d gains (%v, %v), want unit gain", i0, h1, h2)
	}
}

// BenchmarkSegmentFit is the kernel on its own, SF8 window (the cmd twin
// lives in cmd/choir-bench).
func BenchmarkSegmentFit(b *testing.B) {
	d := decoderForSF(lora.SF8)
	x := testWindow(d.n, 0, 1)
	tone := append([]complex128(nil), d.tone(37.3)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SegmentFit(x, tone)
	}
}
