package dsp

import (
	"fmt"
	"math"
	"slices"
)

// Peak describes a local maximum in a (typically zero-padded) magnitude
// spectrum. Bin is expressed in natural bins of the unpadded transform, so a
// peak between bins carries a fractional part — the quantity Choir uses to
// tell users apart.
type Peak struct {
	// Bin is the interpolated peak location in natural (unpadded) FFT bins.
	Bin float64
	// Mag is the spectrum magnitude at the peak.
	Mag float64
}

// String implements fmt.Stringer.
func (p Peak) String() string { return fmt.Sprintf("peak(bin=%.3f, mag=%.3g)", p.Bin, p.Mag) }

// PeakConfig controls FindPeaks.
type PeakConfig struct {
	// Pad is the zero-padding factor of the spectrum relative to the natural
	// transform size (spectrum length / natural size). Must be >= 1.
	Pad int
	// MinSeparation is the minimum distance between reported peaks in natural
	// bins; the stronger peak wins within that distance. This suppresses the
	// sinc side lobes of a strong peak (which are spaced exactly one natural
	// bin apart) from masquerading as users. A value just under 1.0 is
	// appropriate for dechirped LoRa symbols.
	MinSeparation float64
	// Threshold is the minimum magnitude for a reported peak, in absolute
	// spectrum units. Callers usually set it to a multiple of the estimated
	// noise floor (see NoiseFloorScratch).
	Threshold float64
	// Max limits the number of reported peaks (0 means unlimited).
	Max int
}

// FindPeaks locates local maxima of spectrum that clear cfg.Threshold,
// enforcing cfg.MinSeparation, strongest first. Peak positions are refined by
// quadratic interpolation over the padded grid and reported in natural bins.
// The spectrum is treated as circular (bin 0 adjoins the last bin), matching
// the aliasing of dechirped chirps.
func FindPeaks(spectrum []float64, cfg PeakConfig) []Peak {
	return FindPeaksScratch(nil, spectrum, cfg)
}

// PeakScratch holds FindPeaksScratch's working storage so repeated searches
// allocate nothing once the buffers have grown to the spectrum's candidate
// count. The returned peaks alias the scratch and stay valid until the next
// call with the same scratch.
type PeakScratch struct {
	cands, kept []Peak
}

// FindPeaksScratch is FindPeaks reusing s's buffers (s may be nil for
// one-shot use). Results are identical to FindPeaks.
func FindPeaksScratch(s *PeakScratch, spectrum []float64, cfg PeakConfig) []Peak {
	if cfg.Pad < 1 {
		panic(fmt.Sprintf("dsp: FindPeaks pad %d < 1", cfg.Pad))
	}
	n := len(spectrum)
	if n == 0 {
		return nil
	}
	if s == nil {
		s = &PeakScratch{}
	}
	period := float64(n) / float64(cfg.Pad)
	cands := s.cands[:0]
	for i, v := range spectrum {
		// Almost no bin clears the threshold, so it is tested before the
		// neighbours are fetched; only the two end bins wrap.
		if v < cfg.Threshold {
			continue
		}
		prev, next := spectrum[n-1], spectrum[0]
		if i > 0 {
			prev = spectrum[i-1]
		}
		if i < n-1 {
			next = spectrum[i+1]
		}
		if v < prev || v <= next {
			continue
		}
		// Quadratic (parabolic) interpolation around the padded-grid maximum.
		delta := 0.0
		den := prev - 2*v + next
		if den != 0 {
			delta = 0.5 * (prev - next) / den
			if delta > 0.5 {
				delta = 0.5
			} else if delta < -0.5 {
				delta = -0.5
			}
		}
		interpMag := v - 0.25*(prev-next)*delta
		// The spectrum is circular: interpolation below index 0 wraps to the
		// top of the natural range rather than going negative.
		bin := (float64(i) + delta) / float64(cfg.Pad)
		if bin < 0 {
			bin += period
		}
		cands = append(cands, Peak{Bin: bin, Mag: interpMag})
	}
	slices.SortFunc(cands, func(a, b Peak) int {
		if a.Mag > b.Mag {
			return -1
		}
		if a.Mag < b.Mag {
			return 1
		}
		return 0
	})
	s.cands = cands

	out := s.kept[:0]
	for _, c := range cands {
		ok := true
		for _, kept := range out {
			if circularDist(c.Bin, kept.Bin, period) < cfg.MinSeparation {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		out = append(out, c)
		if cfg.Max > 0 && len(out) >= cfg.Max {
			break
		}
	}
	s.kept = out
	return out
}

// circularDist returns the distance between bins a and b on a circle of the
// given period.
func circularDist(a, b, period float64) float64 {
	d := math.Mod(math.Abs(a-b), period)
	if d > period/2 {
		d = period - d
	}
	return d
}

// CircularBinDist returns the circular distance between two bin positions for
// a transform with period natural bins. Exported for decoder use.
func CircularBinDist(a, b, period float64) float64 { return circularDist(a, b, period) }

// NoiseFloorScratch estimates the noise floor of a magnitude spectrum as the
// median magnitude. The median is robust to a handful of strong peaks: even
// with tens of colliding users the peak bins are a vanishing fraction of a
// padded spectrum. scratch (capacity >= len(spectrum); allocated when too
// small) lets hot paths allocate nothing. spectrum is not modified. A
// spectrum of at least bracketMin bins is not copied whole: bracketMedian
// finds the median from the few values near it. Short spectra, spectra
// holding NaN and a missed bracket take MedianInPlace over a full copy. Both
// routes return the same order statistics (a zero median can differ in sign
// only, where the spectrum holds both −0 and +0; a magnitude spectrum holds
// no −0).
func NoiseFloorScratch(spectrum, scratch []float64) float64 {
	if len(spectrum) == 0 {
		return 0
	}
	if cap(scratch) < len(spectrum) {
		scratch = make([]float64, len(spectrum))
	}
	tmp := scratch[:len(spectrum)]
	if len(spectrum) >= bracketMin {
		if m, ok := bracketMedian(spectrum, tmp); ok {
			return m
		}
	}
	copy(tmp, spectrum)
	return MedianInPlace(tmp)
}

// The median bracket: every bracketStride-th value is sampled, and the
// bracket spans the sample's middle ranks ± (1.5·√s + 2) for s samples —
// about ±3 standard deviations of where the median's rank falls in the
// sample — so it holds the median unless the spectrum's layout fools the
// stride. The stride is odd so that it walks through every phase of a
// padded spectrum's power-of-two period: a stride of 16 reads one point of
// each side lobe of the decoder's 16-times padded spectra, and missed 4–10 %
// of them at SF9 and SF10.
const (
	bracketStride = 15
	bracketMin    = 1024
)

// bracketMedian returns the median of xs as MedianInPlace would, using buf
// (len(xs)) as scratch, or false when a full selection is needed: xs holds
// NaN, or the middle ranks fall outside the bracket. One branch-free pass
// counts the values below the bracket and gathers the rest that are not
// above it, and quickselect finishes on the gathered few at the middle ranks
// shifted down by the count below. A NaN is neither below nor above, so it
// is gathered, and the gathered few are checked for one.
func bracketMedian(xs, buf []float64) (float64, bool) {
	n := len(xs)
	s := 0
	for i := 0; i < n; i += bracketStride {
		buf[s] = xs[i]
		s++
	}
	half := 1.5*math.Sqrt(float64(s)) + 2
	rLo := max(0, int(float64(s/2)-half))
	rHi := min(s-1, int(math.Ceil(float64(s/2)+half)))
	hi := quickselect(buf[:s], rHi)
	lo := quickselect(buf[:rHi], rLo)
	if !(lo <= hi) { // a NaN in the sample can leave the two unordered
		return 0, false
	}

	in, below := 0, 0
	for _, v := range xs {
		buf[in] = v
		lt, gt := b2i(v < lo), b2i(v > hi)
		in += 1 - lt - gt
		below += lt
	}
	k, even := n/2, n%2 == 0
	if below > k-b2i(even) || below+in <= k {
		return 0, false
	}
	for _, v := range buf[:in] {
		if v != v {
			return 0, false
		}
	}
	return middle(buf[:in], k-below, even), true
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// FracDiff returns the signed smallest difference between two fractional bin
// values a and b, each in [0,1), accounting for wraparound: the result is in
// [-0.5, 0.5).
func FracDiff(a, b float64) float64 {
	d := a - b
	for d >= 0.5 {
		d -= 1
	}
	for d < -0.5 {
		d += 1
	}
	return d
}
