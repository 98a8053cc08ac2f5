package choir

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"choir/internal/lora"
)

// OffsetSplit is a transmitter's aggregate offset resolved into its two
// physical components.
type OffsetSplit struct {
	// CFOBins is the carrier-frequency offset in FFT bins (signed; multiply
	// by BW/2^SF for Hz).
	CFOBins float64
	// TimingSamples is the timing offset in samples (signed; positive means
	// the transmitter is late relative to the receiver grid).
	TimingSamples float64
}

// ErrNoSFD is returned when the PHY configuration carries no SFD
// down-chirps.
var ErrNoSFD = errors.New("choir: PHY has no SFD (Params.SFDLen == 0)")

// SplitOffsets separates each colliding transmitter's aggregate offset into
// carrier-frequency and timing components, something the Choir paper's
// aggregate-offset design deliberately avoids needing — and which becomes
// possible when frames carry LoRa's down-chirp SFD. Chirp duality has
// opposite signs on the two chirp slopes:
//
//	up-chirp windows:   peak at  cfo − δ   (bins)
//	down-chirp windows: peak at  cfo + δ
//
// so cfo = (up+down)/2 and δ = (down−up)/2, both resolved to the sub-bin
// precision of the usual offset estimator. Observations from the preamble
// and the SFD are paired per user under the physical constraints that the
// timing offset is sub-symbol and the CFO is bounded by maxCFOBins.
//
// This is an extension beyond the paper (its Sec. 5.2 notes that other
// PHYs would need exactly this kind of modification); the decoder itself
// never requires the split.
func (d *Decoder) SplitOffsets(samples []complex128, maxCFOBins float64) ([]OffsetSplit, error) {
	p := d.cfg.LoRa
	if p.SFDLen == 0 {
		return nil, ErrNoSFD
	}
	need := (p.PreambleLen + 2 + p.SFDLen) * d.n
	if len(samples) < need {
		return nil, fmt.Errorf("%w: have %d samples, need %d", lora.ErrShortSignal, len(samples), need)
	}
	if err := ValidateIQ(samples); err != nil {
		return nil, err
	}

	// Up-chirp observations from the preamble (the normal estimator).
	ests := d.estimatePreamble(samples)
	if len(ests) == 0 {
		return nil, ErrNoUsers
	}

	// Down-chirp observations: dechirp the SFD windows with the UP-chirp
	// (conjugate roles) and run the same peak machinery.
	sfdWins := make([][]complex128, p.SFDLen)
	up := d.modem.Up()
	for w := 0; w < p.SFDLen; w++ {
		off := (p.PreambleLen + 2 + w) * d.n
		win := samples[off : off+d.n]
		dech := make([]complex128, d.n)
		for i := range dech {
			dech[i] = win[i] * up[i]
		}
		sfdWins[w] = dech
	}
	// The SFD search writes the estimate rows the preamble's estimates use;
	// only their offsets are read from here on.
	downEsts := d.findPreambleUsers(sfdWins, nil)
	if len(downEsts) == 0 {
		return nil, fmt.Errorf("choir: no SFD peaks found for %d users", len(ests))
	}

	// Pair up/down observations: a pairing implies cfo=(u+v)/2, δ=(v−u)/2
	// (mod-N arithmetic); keep physically plausible pairs and assign
	// greedily by smallest |δ| (beacon-synchronized transmitters are
	// sub-symbol off; grossly large implied δ signals a wrong pairing).
	period := float64(d.n)
	type cand struct {
		ui, di int
		split  OffsetSplit
		cost   float64
	}
	var cands []cand
	for ui, ue := range ests {
		for di, de := range downEsts {
			for _, branch := range []float64{0, period} {
				upOff := signedMod(ue.offset, period)
				dnOff := signedMod(de.offset+branch, 2*period) // allow wrap branch
				cfo := (upOff + dnOff) / 2
				delta := (dnOff - upOff) / 2
				cfo = signedMod(cfo, period)
				delta = signedMod(delta, period)
				// Beacon-synchronized transmitters are sub-half-symbol off;
				// beyond that the mod-N pairing becomes ambiguous anyway.
				if math.Abs(cfo) > maxCFOBins || math.Abs(delta) > period*0.4 {
					continue
				}
				cands = append(cands, cand{
					ui: ui, di: di,
					split: OffsetSplit{
						CFOBins:       cfo,
						TimingSamples: delta,
					},
					cost: math.Abs(delta),
				})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	usedUp := make([]bool, len(ests))
	usedDown := make([]bool, len(downEsts))
	var out []OffsetSplit
	for _, c := range cands {
		if usedUp[c.ui] || usedDown[c.di] {
			continue
		}
		usedUp[c.ui] = true
		usedDown[c.di] = true
		out = append(out, c.split)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("choir: no plausible up/down offset pairing")
	}
	return out, nil
}

// signedMod folds v into (−period/2, period/2].
func signedMod(v, period float64) float64 {
	v = math.Mod(v, period)
	if v > period/2 {
		v -= period
	}
	if v <= -period/2 {
		v += period
	}
	return v
}
