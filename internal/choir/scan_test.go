package choir

// The golden search's two exact kernels (DESIGN.md §12) against the forms
// they replaced, which survive here as references: the fused tone-and-prefix
// walk against dsp.Tone followed by tonePrefix, and the block-pruned
// boundary scan against the scan of every boundary — bit for bit, not within
// a bound.

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"choir/internal/dsp"
	"choir/internal/lora"
	"choir/internal/obs"
	"choir/internal/trace"
)

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// checkToneAndPrefix holds one fused walk to its two passes.
func checkToneAndPrefix(t testing.TB, x []complex128, freq float64) {
	t.Helper()
	n := len(x)
	wantTone := dsp.Tone(nil, n, freq, 0)
	wantPrefix := tonePrefix(make([]complex128, n+1), x, wantTone)
	tone, prefix := make([]complex128, n), make([]complex128, n+1)
	for i := range prefix {
		prefix[i] = cmplx.NaN()
	}
	dsp.ToneAndPrefix(tone, prefix, x, freq)
	for k := range wantTone {
		if !sameBits(tone[k], wantTone[k]) {
			t.Fatalf("n=%d freq=%g: tone[%d] = %v, Tone gives %v", n, freq, k, tone[k], wantTone[k])
		}
	}
	for i := range wantPrefix {
		if !sameBits(prefix[i], wantPrefix[i]) {
			t.Fatalf("n=%d freq=%g: prefix[%d] = %v, tonePrefix gives %v", n, freq, i, prefix[i], wantPrefix[i])
		}
	}
}

func TestToneAndPrefixMatchesParts(t *testing.T) {
	for _, n := range []int{1, 2, 3, 127, 128, 256, 512, 1000, 1024, 2048, 4096} {
		x := testWindow(n, n/5, uint64(n))
		N := float64(n)
		for _, fBins := range []float64{0, 1, 37, -37, 0.5, 12.5, -12.5, 41.37, -0.25, N - 0.001, N, N + 3.7, -N - 0.5, 2.5 * N, -7.25 * N} {
			checkToneAndPrefix(t, x, fBins/N)
		}
	}
	checkToneAndPrefix(t, nil, 0.25)
}

// FuzzToneAndPrefix holds the fused walk to its two passes for arbitrary
// lengths, frequencies and windows.
func FuzzToneAndPrefix(f *testing.F) {
	f.Add(uint16(127), 0.1337, uint64(1))
	f.Add(uint16(4095), -1.0, uint64(2))
	f.Add(uint16(1023), 0.5, uint64(3))
	f.Add(uint16(0), 3.75, uint64(4))
	f.Fuzz(func(t *testing.T, nRaw uint16, freq float64, seed uint64) {
		if math.IsNaN(freq) || math.IsInf(freq, 0) {
			return
		}
		n := 1 + int(nRaw)%4096
		checkToneAndPrefix(t, testWindow(n, int(seed%uint64(n)), seed), freq)
	})
}

// candidateBound is segmentFitRefined's stated bound on how far a
// golden-search candidate's energy, a dsp.PrefixBySquaring walk and
// segmentScan over x (N samples), lies from the energy dsp.ToneAndPrefix and
// the same scan give at its frequency: 32·N·ε·Σ|x_k|², ε = 2⁻⁵².
//
// The two tones are within (6N + 2⌈log₂N⌉)·ε and 4⌈log₂N⌉·ε of the exact one
// (package dsp), and each walk's running sums round by at most √2·ε/2 of
// Σ_{k<i}|x_k| per term. So a prefix sum P_i of the two walks differs by at
// most δ·Σ_{k<i}|x_k|, δ ≈ (7.5N + 6⌈log₂N⌉)·ε, and a tail T − P_i by
// δ·Σ_{k≥i}|x_k| plus √2·N·ε·Σ|x_k|. The energy at boundary i is
// |P_i|²/i + |T−P_i|²/(N−i), and |P_i|² ≤ i·Σ_{k<i}|x_k|² (Cauchy–Schwarz),
// so it moves by at most about 2δ·Σ|x_k|² + 2.9·N·ε·Σ|x_k|²: under
// (18N + 12⌈log₂N⌉)·ε·Σ|x_k|², which is under 20·N·ε·Σ|x_k|² for N ≥ 128.
// The scan's own roundings add under 8·√N·ε of Σ|x_k|², and the maximum over
// boundaries moves no further than the worst boundary does. 32·N·ε leaves
// half again for the second-order terms.
func candidateBound(x []complex128) float64 {
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return 32 * float64(len(x)) * 0x1p-52 * e
}

// checkCandidateEnergy holds one candidate walk's energy to candidateBound
// of ToneAndPrefix's and returns their distance in units of N·ε·Σ|x_k|².
func checkCandidateEnergy(t testing.TB, d *Decoder, x []complex128, fBins float64) float64 {
	t.Helper()
	n := d.n
	tone, prefix := make([]complex128, n), make([]complex128, n+1)
	dsp.ToneAndPrefix(tone, prefix, x, fBins/float64(n))
	_, want, _ := d.segmentScan(prefix, nil, -1)
	dsp.PrefixBySquaring(tone, prefix, x, fBins/float64(n))
	_, got, _ := d.segmentScan(prefix, nil, -1)
	bound := candidateBound(x)
	if e := math.Abs(got - want); !(e <= bound) {
		t.Fatalf("N=%d f=%g: candidate energy %.17g, ToneAndPrefix's %.17g: %.3g apart, bound %.3g", n, fBins, got, want, e, bound)
	}
	if bound == 0 {
		return 0
	}
	return math.Abs(got-want) / bound * 32
}

// TestCandidateEnergyBound holds the golden search's candidate walk to its
// stated bound against the ToneAndPrefix walk and scan it stands in for, at
// N = 128…4096, for negative, integral, half-bin and |f| ≥ N frequencies, on
// refinement inputs, tone mixtures, a pure tone and windows scaled far up
// and down. It logs the worst distance it saw, in N·ε·Σ|x_k|² (the bound is
// 32).
func TestCandidateEnergyBound(t *testing.T) {
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		d := decoderForSF(sf)
		n := d.n
		N := float64(n)
		rng := rand.New(rand.NewPCG(uint64(sf), 0xCA4D))
		var windows [][]complex128
		var starts []float64
		for seed := uint64(1); seed <= 3; seed++ {
			x, f := refineWindow(d, seed)
			windows, starts = append(windows, x), append(starts, f)
			windows, starts = append(windows, testWindow(n, int(seed%2)*n/3, seed)), append(starts, rng.Float64()*N)
		}
		x, f := refineWindow(d, 9)
		for _, scale := range []complex128{1e-150, complex(0, 1e150)} {
			y := append([]complex128(nil), x...)
			for k := range y {
				y[k] *= scale
			}
			windows, starts = append(windows, y), append(starts, f)
		}
		windows, starts = append(windows, append([]complex128(nil), d.tone(20.25)...)), append(starts, 20.25)
		worst := 0.0
		for i, x := range windows {
			for _, fBins := range []float64{starts[i], -starts[i], 0, 1, 37, -37, 0.5, -12.5, 41.37, N - 0.5, N, N + 3.7, -N - 0.5, 2.5 * N, -7.25 * N} {
				for _, off := range []float64{0, 0.3 * (rng.Float64() - 0.5)} {
					worst = max(worst, checkCandidateEnergy(t, d, x, fBins+off))
				}
			}
		}
		t.Logf("%v: worst candidate energy error %.3g·N·ε·Σ|x_k|² (bound 32)", sf, worst)
	}
}

// FuzzCandidateEnergy holds the candidate walk to its bound for any SF from
// 7 to 12, frequency and window.
func FuzzCandidateEnergy(f *testing.F) {
	f.Add(uint8(0), 37.25, uint64(1))
	f.Add(uint8(5), -4100.5, uint64(2))
	f.Add(uint8(2), 0.0, uint64(3))
	f.Add(uint8(3), 1023.999, uint64(4))
	var decs [6]*Decoder
	f.Fuzz(func(t *testing.T, sfRaw uint8, fBins float64, seed uint64) {
		if math.IsNaN(fBins) || math.Abs(fBins) > 1e12 {
			return
		}
		i := int(sfRaw) % len(decs)
		if decs[i] == nil {
			decs[i] = decoderForSF(lora.SF7 + lora.SpreadingFactor(i))
		}
		d := decs[i]
		checkCandidateEnergy(t, d, testWindow(d.n, int(seed%uint64(d.n)), seed), fBins)
	})
}

// refineWindow is what the golden search refines: one user's two-segment
// tone, put back onto a residual of noise, and a coarse estimate of its
// frequency 0.3 bin off.
func refineWindow(d *Decoder, seed uint64) ([]complex128, float64) {
	rng := rand.New(rand.NewPCG(seed, 0xF17))
	n := d.n
	f := rng.Float64() * float64(n)
	b := n/4 + rng.IntN(n/2)
	h1 := cmplx.Rect(0.5+rng.Float64(), 2*math.Pi*rng.Float64())
	h2 := cmplx.Rect(0.5+rng.Float64(), 2*math.Pi*rng.Float64())
	x := make([]complex128, n)
	for k, v := range d.tone(f) {
		h := h1
		if k >= b {
			h = h2
		}
		x[k] = h*v + complex(rng.NormFloat64(), rng.NormFloat64())*0.05
	}
	return x, f + 0.3
}

// segmentFitRefinedTwoPass is segmentFitRefined before the fused walk, the
// pruned scan and the candidate walk: per candidate a tone, a separate
// correlation pass and a scan of every boundary. It also returns the closest
// the search's compared energies came to each other.
func segmentFitRefinedTwoPass(d *Decoder, x []complex128, fBins float64) (segModel, []complex128, float64) {
	explained := func(f float64) float64 {
		prefix := tonePrefix(make([]complex128, d.n+1), x[:d.n], d.tone(f))
		_, energy, _ := d.segmentScan(prefix, nil, -1)
		return energy
	}
	const phi = 0.6180339887498949
	a, b := fBins-0.5, fBins+0.5
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := explained(x1), explained(x2)
	gap := math.Inf(1)
	for i := 0; i < d.cfg.FineIters; i++ {
		gap = min(gap, math.Abs(f1-f2))
		if f1 > f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = explained(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = explained(x2)
		}
	}
	best := (a + b) / 2
	tone := d.tone(best)
	h1, h2, i0 := d.segmentFit(x, tone)
	return segModel{f: best, h1: h1, h2: h2, i0: i0}, tone, gap
}

// TestPrunedScanMatchesFullScan requires the bounded scan to return the full
// scan's boundary and energy bit for bit whatever boundary seeds its lower
// bound, and the whole golden search to return the two-pass form's model
// and tone — unless two energies that form compared lie within twice
// candidateBound of each other, where the candidate walk may branch the
// other way (a pure tone searched from its own frequency compares mirror
// images). It logs how many blocks the bound skips, on these windows and on
// whole decodes of the golden fixtures per SF.
func TestPrunedScanMatchesFullScan(t *testing.T) {
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		n := float64(lora.Params{SF: sf}.N())
		budget := (16*n + 4*math.Ceil(math.Log2(n)) + 64) * 0x1p-52
		if scanMargin-1 < 100*budget {
			t.Errorf("%v: scanMargin − 1 = %.3g is under 100× the error budget %.3g", sf, scanMargin-1, budget)
		}
	}
	scale := func(x []complex128, s complex128) []complex128 {
		for k := range x {
			x[k] *= s
		}
		return x
	}
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF8, lora.SF10} {
		d := decoderForSF(sf)
		n := d.n
		rng := rand.New(rand.NewPCG(uint64(sf), 0x5CA9))
		type window struct {
			name string
			x    []complex128
			f    float64 // where the golden search starts
		}
		var windows []window
		for seed := uint64(1); seed <= 4; seed++ {
			x, f := refineWindow(d, seed)
			windows = append(windows, window{"refinement input", x, f})
			windows = append(windows, window{"three tones in noise", testWindow(n, int(seed%2)*n/3, seed), rng.Float64() * float64(n)})
		}
		x, f := refineWindow(d, 9)
		wide := append([]complex128(nil), x...)
		scale(wide[n/5:n/4], 1e100)
		// A real ±1 step mid-block at frequency 0: the block holding the
		// maximum has a bound within 64/N² of its gain.
		tight := make([]complex128, n)
		for k := range tight {
			tight[k] = 1
			if k >= n/2+scanBlock/2 {
				tight[k] = -1
			}
		}
		windows = append(windows,
			window{"tight bound", tight, 0},
			window{"subnormal gains", scale(append([]complex128(nil), x...), 1e-160), f},
			window{"pure tone (a flat score)", append([]complex128(nil), d.tone(20.25)...), 20.25},
			window{"all zero", make([]complex128, n), 12.5},
			window{"huge", scale(append([]complex128(nil), x...), 1e150), f},
			window{"overflowing", scale(append([]complex128(nil), x...), 1e154), f},
			window{"underflowing", scale(append([]complex128(nil), x...), 1e-155), f},
			window{"1e100 dynamic range", wide, f},
		)
		var skipped, blocks int
		for _, w := range windows {
			blk := blockSums(make([]float64, n/scanBlock), w.x)
			for trial := 0; trial < 6; trial++ {
				f := w.f
				if trial > 0 {
					f += rng.Float64() - 0.5
				}
				tone, prefix := make([]complex128, n), make([]complex128, n+1)
				dsp.ToneAndPrefix(tone, prefix, w.x, f/float64(n))
				wantPrefix := tonePrefix(make([]complex128, n+1), w.x, d.tone(f))
				for i := range prefix {
					if !sameBits(prefix[i], wantPrefix[i]) {
						t.Fatalf("%v %s f=%g: prefix[%d] = %v, two passes give %v", sf, w.name, f, i, prefix[i], wantPrefix[i])
					}
				}
				wi, we, _ := d.segmentScan(wantPrefix, nil, -1)
				for _, hint := range []int{0, n, rng.IntN(n + 1), wi, max(wi-1, 0), min(wi+9, n)} {
					i0, e, sk := d.segmentScan(prefix, blk, hint)
					if i0 != wi || math.Float64bits(e) != math.Float64bits(we) {
						t.Fatalf("%v %s f=%g hint %d: pruned scan (%d, %v), full scan (%d, %v)", sf, w.name, f, hint, i0, e, wi, we)
					}
					skipped, blocks = skipped+sk, blocks+n/scanBlock
				}
				// The same on a candidate walk's prefix sums, whose tone's
				// magnitude error the bound's budget also covers.
				dsp.PrefixBySquaring(tone, prefix, w.x, f/float64(n))
				ci, ce, _ := d.segmentScan(prefix, nil, -1)
				for _, hint := range []int{0, n, rng.IntN(n + 1), ci} {
					if i0, e, _ := d.segmentScan(prefix, blk, hint); i0 != ci || math.Float64bits(e) != math.Float64bits(ce) {
						t.Fatalf("%v %s f=%g hint %d: pruned scan of a candidate walk (%d, %v), full scan (%d, %v)", sf, w.name, f, hint, i0, e, ci, ce)
					}
				}
			}
			m, tone := d.segmentFitRefined(w.x, w.f, 0)
			tone = append([]complex128(nil), tone...)
			wm, wantTone, gap := segmentFitRefinedTwoPass(d, w.x, w.f)
			if math.Float64bits(m.f) != math.Float64bits(wm.f) || m.i0 != wm.i0 || !sameBits(m.h1, wm.h1) || !sameBits(m.h2, wm.h2) {
				if bound := candidateBound(w.x); gap > 2*bound {
					t.Fatalf("%v %s: refined fit %+v, two-pass form %+v, whose closest comparison was %.3g apart (twice the bound: %.3g)", sf, w.name, m, wm, gap, 2*bound)
				}
				t.Logf("%v %s: a tie %.3g apart (twice the bound: %.3g) branched the other way", sf, w.name, gap, 2*candidateBound(w.x))
				continue
			}
			for k := range tone {
				if !sameBits(tone[k], wantTone[k]) {
					t.Fatalf("%v %s: refined tone[%d] = %v, two-pass form %v", sf, w.name, k, tone[k], wantTone[k])
				}
			}
		}
		if skipped == 0 {
			t.Errorf("%v: the bound skipped no block of %d", sf, blocks)
		}
		t.Logf("%v test windows: %d of %d blocks skipped (%.1f%%)", sf, skipped, blocks, 100*float64(skipped)/float64(blocks))
	}
	logGoldenSkipRates(t)
}

// logGoldenSkipRates decodes the golden fixtures, and two- and four-user
// collisions at SF9 and SF10, which no fixture has, and logs the share of
// the golden search's boundary blocks the bound skipped, per SF.
func logGoldenSkipRates(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	type tally struct{ frames, skipped, blocks int64 }
	rates := map[lora.SpreadingFactor]*tally{}
	decode := func(p lora.Params, samples []complex128, payloadLen int) {
		b0, s0 := mScanBlocks.Value(), mScanSkipped.Value()
		if _, err := MustNew(DefaultConfig(p)).Decode(context.Background(), samples, payloadLen); err != nil {
			t.Logf("%v: %v", p.SF, err)
		}
		r := rates[p.SF]
		if r == nil {
			r = &tally{}
			rates[p.SF] = r
		}
		r.frames++
		r.blocks += mScanBlocks.Value() - b0
		r.skipped += mScanSkipped.Value() - s0
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.iq"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden fixtures: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		h, samples, err := trace.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		decode(h.Params, samples, h.PayloadLen)
	}
	for _, sf := range []lora.SpreadingFactor{lora.SF9, lora.SF10} {
		for _, users := range []int{2, 4} {
			spec := defaultSpec(users, uint64(sf)*10+uint64(users))
			spec.params.SF = sf
			decode(spec.params, synthesize(t, spec), len(spec.payloads[0]))
		}
	}
	for sf := lora.SF7; sf <= lora.SF10; sf++ {
		if r := rates[sf]; r != nil && r.blocks > 0 {
			t.Logf("%v (%d frames): %d of %d blocks skipped (%.1f%%)", sf, r.frames, r.skipped, r.blocks, 100*float64(r.skipped)/float64(r.blocks))
		}
	}
}

// BenchmarkSegmentFitRefined is one golden search of a peak's frequency:
// FineIters+2 walks and scans.
func BenchmarkSegmentFitRefined(b *testing.B) {
	for _, sf := range []lora.SpreadingFactor{lora.SF7, lora.SF10} {
		b.Run(sf.String(), func(b *testing.B) {
			d := decoderForSF(sf)
			x, f := refineWindow(d, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.segmentFitRefined(x, f, 0)
			}
		})
	}
}
