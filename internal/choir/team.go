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
	if err := ValidateIQ(samples); err != nil {
		return nil, err
	}
	acc := grow(&d.accBuf, pad*d.n)
	clear(acc)
	// Accumulate the windows' power spectra in window order, so every rounded
	// bit of acc is a function of the samples alone.
	for w := 0; w < p.PreambleLen; w++ {
		if d.canceled() {
			return nil, d.ctxErr
		}
		for i, v := range d.paddedSpectrum(d.dechirpWindow(samples, w*d.n)) {
			acc[i] += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	// Accumulated power spectra have a χ² noise distribution; a lower
	// multiple of the median suffices compared with single-shot detection.
	peaks := d.findPeaks(acc, 1+(d.cfg.PeakThreshold-1)/2, d.cfg.MaxUsers)
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
// the team members via coherent preamble accumulation and then decodes each
// data window with the maximum-likelihood rule of Eqn. 6 (mlSymbol): the
// candidate symbol whose member bins carry the most energy together wins.
// Because the decision statistic sums energy over all members, decoding
// succeeds even when every individual member is below the noise floor. ctx
// bounds the decode under the same cooperative stage-boundary cancellation
// contract as Decode.
func (d *Decoder) DecodeTeam(ctx context.Context, samples []complex128, payloadLen int) (_ *TeamResult, err error) {
	d.arm(ctx)
	defer d.disarm()
	sp := mTeamDecodeTimer.Start()
	defer sp.Stop()
	mDecodes.Inc()
	defer func() { countDecodeErr(err) }()
	p := d.cfg.LoRa
	if err := p.CheckFrame(len(samples), payloadLen); err != nil {
		return nil, err
	}
	offs, err := d.DetectTeam(samples)
	if err != nil {
		return nil, err
	}
	mUsersDetected.Add(int64(len(offs)))

	res := &TeamResult{Offsets: offs}
	nsym := lora.SymbolsPerPayload(payloadLen, p.SF, p.CR)
	start := p.HeaderSymbols() * d.n
	res.Symbols = make([]int, nsym)
	for w := 0; w < nsym; w++ {
		if d.canceled() {
			return nil, d.ctxErr
		}
		dech := d.dechirpWindow(samples, start+w*d.n)
		spec := d.paddedSpectrum(dech)
		res.Symbols[w] = d.mlSymbol(spec, offs)
	}
	payload, _, derr := lora.DecodeSymbolsInto(&d.codec, nil, res.Symbols, payloadLen, p)
	res.Payload = payload
	res.Err = derr
	if derr != nil {
		res.Payload = nil
		mUserCRCFailed.Inc()
	} else {
		mUserDecoded.Inc()
	}
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
	mags := grow(&d.scratchMags, len(spec))
	for i, v := range spec {
		mags[i] = real(v)*real(v) + imag(v)*imag(v)
	}
	floor := dsp.NoiseFloorScratch(mags, grow(&d.noiseScratch, len(mags)))
	if floor <= 0 {
		floor = 1e-30
	}
	best, bestScore := 0, math.Inf(-1)
	for s := 0; s < d.n; s++ {
		var score float64
		for _, f := range offs {
			bin := math.Mod(float64(s)+f, float64(d.n))
			v := specAt(spec, bin, d.n)
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
			dech := lora.Dechirp(d.scratchDech, win, d.modem.Down())
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
			ha, hb, i0, head, tail := d.splitTwoToneFit(dech,
				toneOf(symbolAt(u, w-1)), toneOf(cur), toneOf(symbolAt(u, w+1)))
			// Re-chirp each fitted segment (a nil tone means none).
			subtractChirped := func(lo, hi int, tone []complex128, h complex128) {
				if tone == nil {
					return
				}
				for i := lo; i < hi; i++ {
					win[i] -= h * tone[i] * up[i]
				}
			}
			subtractChirped(0, i0, head, ha)
			subtractChirped(i0, d.n, tail, hb)
		}
	}
	return out
}

// splitTwoToneFit fits a window as head tone + tail tone around a boundary:
// orientation A is (previous symbol | current symbol), orientation B is
// (current symbol | next symbol), each tone given by its frequency in bins
// (negative means "no tone", e.g. outside the frame). It returns the gains
// and boundary of the better-scoring orientation and its head and tail
// tones, nil for "no tone": the previous, current and next symbols' tones
// are built in tone slots 0, 1 and 2, where they stay for the caller to
// subtract the fit with. Both orientations read the current symbol's prefix
// sums, built once in prefCur; the previous symbol's and then the next
// one's are built in prefPrev. It runs outside any decode, so it borrows
// the slots and accumulateBoundaryScan's prefix buffers.
func (d *Decoder) splitTwoToneFit(dech []complex128, prevTone, curTone, nextTone float64) (ha, hb complex128, i0 int, head, tail []complex128) {
	prev, cur, next := d.slotTone(0, prevTone), d.slotTone(1, curTone), d.slotTone(2, nextTone)
	curPrefix := tonePrefix(grow(&d.prefCur, len(dech)+1), dech, cur)
	other := grow(&d.prefPrev, len(dech)+1)
	scoreA, haA, hbA, i0A := splitScore(tonePrefix(other, dech, prev), curPrefix)
	scoreB, haB, hbB, i0B := splitScore(curPrefix, tonePrefix(other, dech, next))
	if prevTone < 0 {
		scoreA = math.Inf(-1)
	}
	if nextTone < 0 && prevTone >= 0 {
		scoreB = math.Inf(-1)
	}
	orNil := func(f float64, tone []complex128) []complex128 {
		if f < 0 {
			return nil
		}
		return tone
	}
	if scoreA >= scoreB {
		return haA, hbA, i0A, orNil(prevTone, prev), orNil(curTone, cur)
	}
	return haB, hbB, i0B, orNil(curTone, cur), orNil(nextTone, next)
}

// splitScore finds the boundary i0 maximizing the energy explained by a
// head tone and a tail tone, splitEnergy over their prefix sums head and
// tail, and forms the head's gain before i0 and the tail's after it.
func splitScore(head, tail []complex128) (score float64, ha, hb complex128, i0 int) {
	score = math.Inf(-1)
	for i := range head {
		if s := splitEnergy(head, tail, i); s > score {
			score, i0 = s, i
		}
	}
	ha, _ = segmentGains(head, i0)
	_, hb = segmentGains(tail, i0)
	return score, ha, hb, i0
}
