package choir

import (
	"context"
	"errors"
	"fmt"
	"math"

	"choir/internal/dsp"
	"choir/internal/lora"
)

// TeamResult is the outcome of decoding a coordinated team transmission
// (Sec. 7): several co-located sensors sending identical payloads whose
// signals are individually below the noise floor.
type TeamResult struct {
	// Offsets are the detected per-member aggregate offsets in bins.
	Offsets []float64
	// Gains are the corresponding channel estimates.
	Gains []complex128
	// Symbols is the jointly decoded symbol stream.
	Symbols []int
	// Payload is the decoded payload (nil if the CRC failed).
	Payload []byte
	// Err records a payload decode failure.
	Err error
}

// ErrNotDetected is returned when coherent preamble accumulation finds no
// team transmission.
var ErrNotDetected = errors.New("choir: no team transmission detected")

// DetectTeam looks for a team transmission whose members may each be below
// the per-symbol noise floor by accumulating the power spectra of all
// preamble windows (Sec. 7.2 "Detecting Packets"): peaks too weak to clear
// the floor in any single window stand out in the average because signal
// power adds across windows while noise power averages flat.
//
// It returns per-member offset estimates, strongest first.
func (d *Decoder) DetectTeam(samples []complex128) ([]float64, error) {
	p := d.cfg.LoRa
	if len(samples) < p.PreambleLen*d.n {
		return nil, fmt.Errorf("%w: have %d samples, need %d", lora.ErrShortSignal, len(samples), p.PreambleLen*d.n)
	}
	if err := validateIQ(samples); err != nil {
		return nil, err
	}
	acc := f64Buf(&d.accBuf, d.padN)
	for i := range acc {
		acc[i] = 0
	}
	// Dechirp the preamble windows into lanes, then accumulate their power
	// spectra from one batched grid per tile. Accumulation still walks the
	// windows in order with the same real²+imag² expression per bin, so the
	// summation order — and therefore every rounded bit of acc — matches the
	// former one-window-at-a-time loop.
	nWin := p.PreambleLen
	if cap(d.winsBuf) < nWin {
		d.winsBuf = append(d.winsBuf[:cap(d.winsBuf)], make([][]complex128, nWin-cap(d.winsBuf))...)
	}
	wins := d.winsBuf[:nWin]
	for w := 0; w < nWin; w++ {
		if d.canceled() {
			return nil, d.ctxErr
		}
		dech := d.dechirpWindow(samples, w*d.n)
		wins[w] = c128Buf(&wins[w], d.n)
		copy(wins[w], dech)
	}
	for base := 0; base < nWin; base += specTile {
		tile := wins[base:min(base+specTile, nWin)]
		d.gridCompute(tile)
		for wi := range tile {
			for i, v := range d.grid.Spec(wi) {
				acc[i] += real(v)*real(v) + imag(v)*imag(v)
			}
		}
	}
	floor := dsp.NoiseFloorScratch(acc, f64Buf(&d.noiseScratch, len(acc)))
	// Accumulated power spectra have a χ² noise distribution; a lower
	// multiple of the median suffices compared with single-shot detection.
	thresh := floor * (1 + (d.cfg.PeakThreshold-1)/2)
	peaks := dsp.FindPeaksScratch(&d.peakScratch, acc, dsp.PeakConfig{
		Pad:           d.pad,
		MinSeparation: 0.9,
		Threshold:     thresh,
		Max:           d.cfg.MaxUsers,
	})
	if len(peaks) == 0 {
		return nil, ErrNotDetected
	}
	// Team members are co-located, so their received powers sit within a
	// narrow range; peaks far below the strongest are sinc side lobes (the
	// first lobe is ~13 dB down in this power-accumulated domain).
	relCut := math.Pow(10, -d.cfg.DynamicRangeDB/10)
	offs := make([]float64, 0, len(peaks))
	for _, pk := range peaks {
		if pk.Mag < peaks[0].Mag*relCut {
			continue
		}
		offs = append(offs, pk.Bin)
	}
	return offs, nil
}

// DecodeTeam decodes a team transmission of identical payloads. It detects
// the team members via coherent preamble accumulation, estimates their
// channels, and then decodes each data window with the maximum-likelihood
// rule of Eqn. 6: the candidate symbol whose multi-tone reconstruction best
// matches the received window wins. Because the decision statistic sums
// energy over all members, decoding succeeds even when every individual
// member is below the noise floor. ctx bounds the decode under the same
// cooperative stage-boundary cancellation contract as Decode.
func (d *Decoder) DecodeTeam(ctx context.Context, samples []complex128, payloadLen int) (*TeamResult, error) {
	d.armCtx(ctx)
	defer d.disarmCtx()
	sp := mTeamDecodeTimer.Start()
	defer sp.Stop()
	mDecodes.Inc()
	p := d.cfg.LoRa
	need := p.FrameSamples(payloadLen)
	if len(samples) < need {
		err := fmt.Errorf("%w: have %d samples, need %d", lora.ErrShortSignal, len(samples), need)
		countDecodeErr(err)
		return nil, err
	}
	offs, err := d.DetectTeam(samples)
	if err != nil {
		countDecodeErr(err)
		return nil, err
	}
	mUsersDetected.Add(int64(len(offs)))

	// Estimate each member's channel by averaging matched-filter outputs
	// coherently across preamble windows (derotating the per-window phase
	// progression of the fractional offset).
	gains := make([]complex128, len(offs))
	for i, f := range offs {
		if d.canceled() {
			countDecodeErr(d.ctxErr)
			return nil, d.ctxErr
		}
		frac := f - math.Floor(f)
		tone := d.tone(f)
		var sum complex128
		for w := 0; w < p.PreambleLen; w++ {
			dech := d.dechirpWindow(samples, w*d.n)
			mf := matchedFilter(dech, tone)
			theta := -2 * math.Pi * frac * float64(w)
			s, c := math.Sincos(theta)
			sum += mf * complex(c, s)
		}
		gains[i] = sum / complex(float64(p.PreambleLen), 0)
	}

	res := &TeamResult{Offsets: offs, Gains: gains}
	nsym := lora.SymbolsPerPayload(payloadLen, p.SF, p.CR)
	start := p.HeaderSymbols() * d.n
	res.Symbols = make([]int, nsym)
	for w := 0; w < nsym; w++ {
		if d.canceled() {
			countDecodeErr(d.ctxErr)
			return nil, d.ctxErr
		}
		dech := d.dechirpWindow(samples, start+w*d.n)
		spec := d.paddedSpectrum(dech)
		res.Symbols[w] = d.mlSymbol(spec, offs)
	}
	payload, _, derr := lora.DecodeSymbols(res.Symbols, payloadLen, p)
	res.Payload = payload
	res.Err = derr
	if derr != nil {
		res.Payload = nil
		mUserCRCFailed.Inc()
	} else {
		mUserDecoded.Inc()
	}
	countDecodeErr(nil)
	return res, nil
}

// mlSymbol implements the per-window ML decision of Eqn. 6 via the padded
// spectrum. Combining across members is noncoherent because a member's
// timing offset imposes a data-dependent constant phase (e^{j2πsδ/N}) that
// cannot be separated from its CFO using the aggregate offset alone. The
// statistic is a sum of log powers at the expected member bins (offset by
// the candidate symbol), floored at the spectrum's median noise power:
// log-domain combining requires ALL member bins to carry energy, so a
// candidate that accidentally aligns one member's expected bin with another
// member's actual peak — increasingly likely as teams grow — scores far
// below the true symbol, while the floor keeps deeply-faded bins from
// vetoing an otherwise unanimous decision.
func (d *Decoder) mlSymbol(spec []complex128, offs []float64) int {
	mags := f64Buf(&d.scratchMags, len(spec))
	for i, v := range spec {
		mags[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	floor := dsp.NoiseFloorScratch(mags, f64Buf(&d.noiseScratch, len(mags)))
	if floor <= 0 {
		floor = 1e-30
	}
	best, bestScore := 0, math.Inf(-1)
	for s := 0; s < d.n; s++ {
		var score float64
		for _, f := range offs {
			bin := math.Mod(float64(s)+f, float64(d.n))
			v := specAt(spec, bin, d.pad, d.n)
			p := real(v)*real(v) + imag(v)*imag(v)
			score += math.Log(p + floor)
		}
		if score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// SubtractDecodedUsers removes fully decoded above-noise users from a
// received signal so that a buried team transmission can be detected
// afterwards (Sec. 7.2 "Dealing with Collisions"). It reconstructs each
// user's dechirped tone per window from the decoded symbols and re-fitted
// channels and subtracts it, returning a cleaned copy of the signal's
// dechirp-domain windows rejoined in the time domain.
func (d *Decoder) SubtractDecodedUsers(samples []complex128, res *Result, payloadLen int) []complex128 {
	p := d.cfg.LoRa
	out := append([]complex128(nil), samples...)
	nsym := lora.SymbolsPerPayload(payloadLen, p.SF, p.CR)
	up := d.modem.Up()

	// symbolAt returns the user's transmitted symbol for frame window w
	// (preamble, sync, then data), or -1 outside the frame.
	sync := p.SyncSymbols()
	symbolAt := func(u *User, w int) int {
		switch {
		case w < 0 || w >= p.HeaderSymbols()+nsym:
			return -1
		case w < p.PreambleLen:
			return 0
		case w < p.PreambleLen+2:
			return sync[w-p.PreambleLen]
		case w < p.HeaderSymbols():
			// SFD down-chirp: not representable as an up-chirp tone, so it
			// is skipped by the subtraction (its residual energy is small
			// relative to the data span).
			return -1
		default:
			return u.Symbols[w-p.HeaderSymbols()]
		}
	}

	for _, u := range res.Users {
		if !u.Decoded() {
			continue
		}
		for w := 0; w < p.HeaderSymbols()+nsym; w++ {
			off := w * d.n
			if off+d.n > len(out) {
				break
			}
			win := out[off : off+d.n]
			dech := lora.Dechirp(nil, win, d.modem.Down())
			// The user's sub-symbol timing offset places a symbol boundary
			// inside the window: one side carries this window's symbol, the
			// other an adjacent one at a different dechirped frequency. Fit
			// both orientations of the two-tone split model — with the full
			// decoded symbol stream all tones are known — and subtract the
			// better one from the raw samples.
			cur := symbolAt(u, w)
			toneOf := func(sym int) float64 {
				if sym < 0 {
					return -1
				}
				return math.Mod(float64(sym)+u.Offset+float64(d.n), float64(d.n))
			}
			ha, hb, i0, fHead, fTail := d.splitTwoToneFit(dech,
				toneOf(symbolAt(u, w-1)), toneOf(cur), toneOf(symbolAt(u, w+1)))
			// Re-chirp each fitted segment (a negative tone means none).
			subtractChirped := func(lo, hi int, f float64, h complex128) {
				if f < 0 {
					return
				}
				tone := d.tone(f)
				for i := lo; i < hi; i++ {
					win[i] -= h * tone[i] * up[i]
				}
			}
			subtractChirped(0, i0, fHead, ha)
			subtractChirped(i0, d.n, fTail, hb)
		}
	}
	return out
}

// splitTwoToneFit fits a window as head tone + tail tone around a boundary:
// orientation A is (previous symbol | current symbol), orientation B is
// (current symbol | next symbol). It returns the gains, boundary and tone
// frequencies (in bins; negative means "no tone", e.g. outside the frame)
// of the better-scoring orientation.
func (d *Decoder) splitTwoToneFit(dech []complex128, prevTone, curTone, nextTone float64) (ha, hb complex128, i0 int, fHead, fTail float64) {
	scoreA, haA, hbA, i0A := d.splitScore(dech, prevTone, curTone)
	scoreB, haB, hbB, i0B := d.splitScore(dech, curTone, nextTone)
	if prevTone < 0 {
		scoreA = math.Inf(-1)
	}
	if nextTone < 0 && prevTone >= 0 {
		scoreB = math.Inf(-1)
	}
	if scoreA >= scoreB {
		return haA, hbA, i0A, prevTone, curTone
	}
	return haB, hbB, i0B, curTone, nextTone
}

// splitScore finds the boundary i0 maximizing the energy explained by a
// head tone at fa and a tail tone at fb (bins) via prefix sums held in
// decoder scratch.
func (d *Decoder) splitScore(x []complex128, fa, fb float64) (score float64, ha, hb complex128, i0 int) {
	n := len(x)
	prefA := tonePrefix(c128Buf(&d.prefA, n+1), x, d.tone(fa))
	prefB := tonePrefix(c128Buf(&d.prefB, n+1), x, d.tone(fb))
	score = math.Inf(-1)
	for i := 0; i <= n; i++ {
		var s float64
		if i > 0 {
			p := prefA[i]
			s += (real(p)*real(p) + imag(p)*imag(p)) / float64(i)
		}
		if i < n {
			q := prefB[n] - prefB[i]
			s += (real(q)*real(q) + imag(q)*imag(q)) / float64(n-i)
		}
		if s > score {
			score, i0 = s, i
		}
	}
	if i0 > 0 {
		ha = prefA[i0] / complex(float64(i0), 0)
	}
	if i0 < n {
		hb = (prefB[n] - prefB[i0]) / complex(float64(n-i0), 0)
	}
	return score, ha, hb, i0
}
