package choir

import (
	"fmt"
	"math"
	"slices"

	"choir/internal/dsp"
	"choir/internal/lora"
)

// peakObs is a spectrum peak observed in one data window.
type peakObs struct {
	bin  float64    // interpolated position in natural bins
	mag  float64    // magnitude
	gain complex128 // complex spectrum value at the peak
	user int        // assigned user index, -1 while unassigned
}

// decodeData walks the data windows of a collision, extracts peaks,
// attributes them to the preamble-estimated users, and decodes each user's
// symbol stream into a payload. It recycles res's Users slice, User structs
// and their per-user storage so steady-state decodes allocate nothing.
func (d *Decoder) decodeData(res *Result, samples []complex128, ests []userEstimate, payloadLen int) []*User {
	p := d.cfg.LoRa
	nsym := lora.SymbolsPerPayload(payloadLen, p.SF, p.CR)
	start := p.HeaderSymbols() * d.n

	users := res.Users
	if cap(users) < len(ests) {
		grown := make([]*User, len(ests))
		copy(grown, users)
		users = grown
	}
	users = users[:len(ests)]
	for i, e := range ests {
		if users[i] == nil {
			users[i] = &User{}
		}
		u := users[i]
		u.Offset = e.offset
		u.Gain = e.gain
		u.Symbols = grow(&u.Symbols, nsym)
		for s := range u.Symbols {
			u.Symbols[s] = -1
		}
		u.WindowOffsets = append(u.WindowOffsets[:0], e.perWin...)
	}

	// Window w's peak list is slot w, emptied here and grown only by the lane
	// that extracts it. A slot past the windows the samples hold stays empty.
	allPeaks := grow(&d.allPeaksBuf, nsym)
	for w := range allPeaks {
		allPeaks[w] = allPeaks[w][:0]
	}
	// Dechirp every data window up front into its own buffer, which the
	// peak, ML and IC passes all read; extractWindowPeaks works on a copy.
	nWins := nsym
	if maxW := (len(samples) - start) / d.n; maxW < nWins {
		nWins = maxW
	}
	if nWins < 0 {
		nWins = 0
	}
	wins := grow(&d.dataWins, nWins)
	for w := 0; w < nWins; w++ {
		if d.canceled() {
			return users
		}
		dech := d.dechirpWindow(samples, start+w*d.n)
		copy(grow(&wins[w], d.n), dech)
	}
	if d.forEachWindow(windowJob{task: peaksTask, wins: wins, ests: ests, peaks: allPeaks[:nWins]}) {
		return users
	}

	d.assignGreedy(allPeaks, users)

	// Final symbol decisions: maximum-likelihood matched filtering at each
	// user's own offset with every other attributed tone subtracted. The
	// peak-assignment pass above established which spectral energy belongs
	// to whom; deciding symbols against the user's preamble offset (rather
	// than rounding raw peak positions) cancels any estimation bias shared
	// between the preamble and data windows — under multipath both the
	// offset and the peaks shift by the ray centroid, so the difference
	// stays on the symbol grid.
	missing := grow(&d.missingBuf, len(users))
	clear(missing)
	if d.forEachWindow(windowJob{task: symbolsTask, wins: wins, peaks: allPeaks[:nWins], users: users}) {
		return users
	}
	// Iterative interference cancellation: with full tentative symbol
	// streams in hand, each user's contribution to every window can be
	// reconstructed — including the inter-symbol segment its timing offset
	// drags into the window (Sec. 6.1), whose boundary is estimated from
	// the data itself — and subtracted for the others, sharpening decisions
	// the peak machinery got wrong (Gauss-Seidel sweeps, strongest user
	// first since users arrive sorted by power).
	bounds := d.estimateBoundaries(wins, nsym, users)
	for iter := 0; iter < 2; iter++ {
		changed := 0
		for w, win := range wins {
			if d.canceled() {
				return users
			}
			changed += d.icSymbolPass(win, w, users, bounds)
		}
		if changed == 0 {
			break
		}
	}
	for ui, u := range users {
		for s, sym := range u.Symbols {
			if sym < 0 {
				u.Symbols[s] = 0
				missing[ui]++
			}
		}
		payload, _, err := lora.DecodeSymbolsInto(&d.codec, u.Payload, u.Symbols, payloadLen, p)
		u.Payload = payload
		u.Err = err
		// Losing most windows IS the failure; a CRC mismatch over invented
		// symbols is only its symptom, so the tracking-lost diagnosis wins.
		if missing[ui] > nsym/2 {
			u.Err = fmt.Errorf("%w in %d/%d windows", ErrTrackingLost, missing[ui], nsym)
			u.Payload = nil
		}
	}
	return users
}

// mlSymbolPass re-decides every user's symbol for window w by matched
// filtering at (candidate + user offset) on the window with all other
// attributed peaks removed. win is the window's dechirped buffer, left intact.
// It writes only index w of each user's Symbols.
func (d *Decoder) mlSymbolPass(win []complex128, w int, peaks []peakObs, users []*User) {
	if len(peaks) == 0 {
		return
	}
	offs := grow(&d.offsBuf, len(peaks))
	for i, pk := range peaks {
		offs[i] = pk.bin
	}
	joint := d.fitChannels(win, offs)
	// Remove only the tones attributed to SOME user: an unassigned peak is
	// either noise (harmless to leave — the matched filter integrates past
	// it) or a misattributed fragment of a real user's signal (catastrophic
	// to subtract).
	resid := grow(&d.dechCopy, d.n)
	copy(resid, win)
	for i, pk := range peaks {
		if pk.user >= 0 {
			subtractTone(resid, d.slotTone(i, offs[i]), joint[i])
		}
	}
	// Each user's matched-filter input is the shared residual plus that
	// user's re-added peak; the residual is fixed during the user loop, so
	// the decisions are independent of the order users are visited in.
	own := grow(&d.workBuf, d.n)
	for ui, u := range users {
		copy(own, resid)
		for i, pk := range peaks {
			if pk.user == ui {
				subtractTone(own, d.slotTone(i, offs[i]), -joint[i])
			}
		}
		// The matched-filter decision is authoritative over the
		// assignment-derived symbol; only an all-zero window leaves it.
		if best := d.combDecide(own, u.Offset); best >= 0 {
			u.Symbols[w] = best
		}
	}
}

// segReg is a masked tone regressor: a complex exponential at freq f (bins)
// restricted to the sample range [lo, hi).
type segReg struct {
	f      float64
	lo, hi int
}

// appendUserSegs appends the (up to two) segment regressors describing user
// u's contribution to data window w, given its estimated boundary b: the
// chirp duality means the user's symbol edge sits at sample b of every
// window, with the earlier symbol before it and the window's symbol after
// (b < N/2, late transmitter), or the window's symbol before it and the next
// one after (b >= N/2, early transmitter).
func (d *Decoder) appendUserSegs(dst []segReg, u *User, w, b, nsym int, syncTail int) []segReg {
	period := float64(d.n)
	symAt := func(idx int) int {
		switch {
		case idx < 0:
			return syncTail // window before the data region: last sync symbol
		case idx >= nsym:
			return -1 // past the frame: silence
		default:
			s := u.Symbols[idx]
			if s < 0 {
				return 0
			}
			return s
		}
	}
	tone := func(sym int) float64 {
		return math.Mod(float64(sym)+u.Offset+period, period)
	}
	var head, tail int
	if b < d.n/2 {
		head, tail = symAt(w-1), symAt(w)
	} else {
		head, tail = symAt(w), symAt(w+1)
	}
	if b > 0 && head >= 0 {
		dst = append(dst, segReg{f: tone(head), lo: 0, hi: b})
	}
	if b < d.n && tail >= 0 {
		dst = append(dst, segReg{f: tone(tail), lo: b, hi: d.n})
	}
	return dst
}

// mainSeg returns the sample range of the window that carries user u's
// symbol for that window under boundary b.
func (d *Decoder) mainSeg(b int) (lo, hi int) {
	if b < d.n/2 {
		return b, d.n
	}
	return 0, b
}

// fitSegments solves the least-squares channel fit (Eqn. 2) over masked tone
// regressors from its normal equations (AᴴA)h = Aᴴx written down directly:
// Aᴴx is one tone correlation per regressor over its own range, and AᴴA is
// the closed-form Gram matrix of toneGram — two masked tones overlap on the
// intersection of their ranges — so a fit costs O(N·k + k³) and no N×k design
// matrix exists. The returned slice aliases decoder-owned workspace storage,
// valid until the next fitSegments / fitChannels call. Regressor j's tone is
// left in tone slot j, whole (slotTone), for the caller to subtract the fit
// with.
func (d *Decoder) fitSegments(dech []complex128, regs []segReg) []complex128 {
	k := len(regs)
	if k == 0 {
		return nil
	}
	ata, atb := d.lsWS.NormalSystem(k)
	for a, ra := range regs {
		atb[a] = toneCorrelate(dech[ra.lo:ra.hi], d.slotTone(a, ra.f)[ra.lo:])
		ata.Data[a*k+a] = complex(float64(ra.hi-ra.lo), 0)
		for b := a + 1; b < k; b++ {
			rb := regs[b]
			g := toneGram(rb.f-ra.f, max(ra.lo, rb.lo), min(ra.hi, rb.hi), d.n)
			ata.Data[a*k+b] = g
			ata.Data[b*k+a] = complex(real(g), -imag(g))
		}
	}
	hs, err := d.lsWS.SolveJittered()
	if err != nil {
		// The jitter is 1e-12 of the mean diagonal — a sample count, at
		// least 1 for the non-empty ranges every caller passes — which keeps
		// each pivot orders of magnitude above the solver's 1e-14 floor even
		// for identical regressors (TestFitChannelsDuplicateOffsets).
		panic(fmt.Sprintf("choir: %d-regressor channel fit: %v", k, err))
	}
	return hs
}

// subtractSeg removes h times the masked regressor r, whose tone is tone,
// from x.
func subtractSeg(x, tone []complex128, r segReg, h complex128) {
	subtractTone(x[r.lo:r.hi], tone[r.lo:], h)
}

// estimateBoundaries locates each user's symbol edge within the windows by
// scanning candidate boundaries against a handful of data windows, with the
// other users' tones crudely removed first. The edge position b (= the
// user's total delay modulo a symbol) is a per-transmitter constant, so a
// median over windows is robust even when individual symbol guesses are
// still wrong. wins are the dechirped data windows.
func (d *Decoder) estimateBoundaries(wins [][]complex128, nsym int, users []*User) []int {
	period := float64(d.n)
	sync := d.cfg.LoRa.SyncSymbols()
	bounds := grow(&d.boundsBuf, len(users))
	clear(bounds)
	const maxProbe = 6
	step := 2
	work := grow(&d.workBuf, d.n)
	scores := grow(&d.scoresBuf, d.n/step+1)
	for ui, u := range users {
		if d.canceled() {
			return bounds
		}
		clear(scores)
		probes := 0
		for w := 1; w < nsym-1 && w < len(wins) && probes < maxProbe; w += 3 {
			copy(work, wins[w])
			// Crude cleanup: subtract other users' window tones.
			offs := grow(&d.offsBuf, len(users))[:0]
			for uj, v := range users {
				if uj == ui {
					continue
				}
				s := v.Symbols[w]
				if s < 0 {
					s = 0
				}
				offs = append(offs, math.Mod(float64(s)+v.Offset+period, period))
			}
			hs := d.fitChannels(work, offs)
			for j, f := range offs {
				subtractTone(work, d.slotTone(j, f), hs[j])
			}
			symPrev, symCur, symNext := 0, u.Symbols[w], 0
			if w > 0 {
				symPrev = u.Symbols[w-1]
			} else {
				symPrev = sync[1]
			}
			if w+1 < nsym {
				symNext = u.Symbols[w+1]
			}
			if symCur < 0 {
				continue
			}
			if symPrev < 0 {
				symPrev = 0
			}
			if symNext < 0 {
				symNext = 0
			}
			d.accumulateBoundaryScan(work, u.Offset, symPrev, symCur, symNext, step, scores)
			probes++
		}
		best, bestScore := 0, math.Inf(-1)
		for bi, sc := range scores {
			if sc > bestScore {
				best, bestScore = bi*step, sc
			}
		}
		bounds[ui] = best
	}
	return bounds
}

// accumulateBoundaryScan adds one window's explained-energy-versus-boundary
// profile into scores. For boundary b the model is (prev|cur) when
// b < N/2 and (cur|next) otherwise; prefix sums make the scan O(N).
func (d *Decoder) accumulateBoundaryScan(work []complex128, offset float64, symPrev, symCur, symNext, step int, scores []float64) {
	period := float64(d.n)
	prefInto := func(buf *[]complex128, sym int) []complex128 {
		tone := d.tone(math.Mod(float64(sym)+offset+period, period))
		return tonePrefix(grow(buf, d.n+1), work, tone)
	}
	pPrev := prefInto(&d.prefPrev, symPrev)
	pCur := prefInto(&d.prefCur, symCur)
	pNext := prefInto(&d.prefNext, symNext)
	for bi := range scores {
		b := bi * step
		if b > d.n {
			break
		}
		if b < d.n/2 {
			scores[bi] += splitEnergy(pPrev, pCur, b)
		} else {
			scores[bi] += splitEnergy(pCur, pNext, b)
		}
	}
}

// splitEnergy is the energy a head tone and a tail tone explain in a window
// split at boundary b, from the window's prefix sums H against the head tone
// and T against the tail tone (N+1 each): |H_b|²/b + |T_N − T_b|²/(N−b), a
// term zero when its segment is empty.
func splitEnergy(head, tail []complex128, b int) float64 {
	n := len(head) - 1
	var eh, et float64
	if b > 0 {
		v := head[b]
		eh = (real(v)*real(v) + imag(v)*imag(v)) / float64(b)
	}
	if b < n {
		v := tail[n] - tail[b]
		et = (real(v)*real(v) + imag(v)*imag(v)) / float64(n-b)
	}
	return eh + et
}

// icSymbolPass performs one interference-cancellation sweep over a window:
// every user's full two-segment contribution is reconstructed from its
// current symbol stream and boundary, the joint channels are least-squares
// fitted, and each user's symbol is re-decided by matched filtering over
// its main segment with everything else subtracted. dech is the window's
// dechirped buffer, left intact. It returns how many symbol decisions changed.
func (d *Decoder) icSymbolPass(dech []complex128, w int, users []*User, bounds []int) int {
	nsym := 0
	for _, u := range users {
		if len(u.Symbols) > nsym {
			nsym = len(u.Symbols)
		}
	}
	sync := d.cfg.LoRa.SyncSymbols()

	build := func() ([]segReg, []int) {
		regs := d.regsBuf[:0]
		owner := d.ownerBuf[:0]
		for ui, u := range users {
			n0 := len(regs)
			regs = d.appendUserSegs(regs, u, w, bounds[ui], nsym, sync[1])
			for j := n0; j < len(regs); j++ {
				owner = append(owner, ui)
			}
		}
		d.regsBuf, d.ownerBuf = regs, owner
		return regs, owner
	}
	regs, owner := build()
	hs := d.fitSegments(dech, regs)

	changed := 0
	work := grow(&d.workBuf, d.n)
	masked := grow(&d.maskedBuf, d.n)
	for ui, u := range users {
		copy(work, dech)
		for j, r := range regs {
			if owner[j] != ui {
				subtractSeg(work, d.slotTone(j, r.f), r, hs[j])
			}
		}
		// Decide over the user's main segment only.
		lo, hi := d.mainSeg(bounds[ui])
		for i := range masked {
			if i >= lo && i < hi {
				masked[i] = work[i]
			} else {
				masked[i] = 0
			}
		}
		best := max(d.combDecide(masked, u.Offset), 0)
		if best != u.Symbols[w] {
			u.Symbols[w] = best
			regs, owner = build()
			hs = d.fitSegments(dech, regs)
			changed++
		}
	}
	return changed
}

// extractWindowPeaks finds the peaks of one data window, applying one round
// of within-window SIC when needed: if some user has no peak whose
// fractional position matches its offset fingerprint (typically a weak user
// under a strong one's side lobes), every peak found so far is modelled and
// subtracted and the residual is searched again at a lower threshold
// (Sec. 5.2 applied per window). win is the pre-dechirped window, left
// intact: each round's spectrum is taken of a working copy, which round 0's
// SIC turns into the residual round 1 searches. The peaks are appended to
// out, the window's emptied slot, and returned.
func (d *Decoder) extractWindowPeaks(out []peakObs, ests []userEstimate, win []complex128) []peakObs {
	dech := grow(&d.dechCopy, d.n)
	copy(dech, win)

	budget := len(ests) + 2
	for round := 0; round < 2; round++ {
		spec := d.paddedSpectrum(dech)
		mags := d.magnitudes(spec)
		st := d.clk.enter(stagePeaks)
		floor := dsp.NoiseFloorScratch(mags, grow(&d.noiseScratch, len(mags)))
		thresh := floor * d.cfg.PeakThreshold
		if round > 0 {
			thresh = floor * (1 + (d.cfg.PeakThreshold-1)/3)
		}
		peaks := dsp.FindPeaksScratch(&d.peakScratch, mags, dsp.PeakConfig{
			Pad:           d.pad,
			MinSeparation: 0.9,
			Threshold:     thresh,
			Max:           budget,
		})
		d.clk.exit(st)
		for _, pk := range peaks {
			out = append(out, peakObs{
				bin:  pk.Bin,
				mag:  pk.Mag,
				gain: specAt(spec, pk.Bin, d.pad, d.n),
				user: -1,
			})
		}
		if round > 0 || d.cfg.SICPhases == 0 || d.usersMatched(out, ests) >= len(ests) {
			break
		}
		// Some user is still buried: remove everything visible (subtracting
		// a peak's fitted tone removes its entire sinc, side lobes included)
		// and look underneath.
		st = d.clk.enter(stageSIC)
		for i, pk := range out {
			// Slot i: refinePeakPositions' sweepSegments fits peak i's tone again.
			tone := d.slotTone(i, pk.bin)
			h1, h2, i0 := d.segmentFit(dech, tone)
			subtractSegments(dech, tone, h1, h2, i0)
		}
		d.clk.exit(st)
	}
	if d.cfg.FineSearch && len(out) > 1 {
		out = d.refinePeakPositions(win, out)
	}
	return out
}

// refinePeakPositions re-measures each peak's position with the leakage of
// every other peak modelled and subtracted (the per-symbol application of
// Algm. 1's leakage modelling, sweepSegments with the frequency searched).
// Without this, a weak user's data peak sitting on a strong user's spectral
// skirt is biased by a sizeable fraction of a bin, enough to break the
// fractional-offset fingerprint match. The joint fit that seeds the sweeps
// apportions energy correctly even when peaks are close, and each peak's
// two-segment model gates out the adjacent symbol's segment, so the refined
// position is free of both other-user leakage and the peak's own
// timing-offset bias.
// It returns the surviving peaks: entries whose magnitude collapses once the
// other peaks are removed were never users — they were side lobes or
// reconstruction residue — and are dropped, as are near-duplicates. dech is
// the window's dechirped buffer, left intact.
func (d *Decoder) refinePeakPositions(dech []complex128, out []peakObs) []peakObs {
	offs := grow(&d.offsBuf, len(out))
	for i, pk := range out {
		offs[i] = pk.bin
	}
	models, _ := d.sweepSegments(dech, offs, true)
	// Each peak takes its dominant segment's channel and equivalent
	// full-window magnitude. Drop entries that lost most of their magnitude
	// (leakage artifacts) and near-duplicates of stronger survivors.
	kept := out[:0]
	for i, pk := range out {
		h, seg := models[i].dominant(d.n)
		mag := cmplxAbs(h) * float64(seg)
		if mag < 0.4*pk.mag {
			continue
		}
		pk.bin = math.Mod(models[i].f+float64(d.n), float64(d.n))
		pk.gain = h * complex(float64(d.n), 0)
		pk.mag = mag
		dup := false
		for _, s := range kept {
			if dsp.CircularBinDist(pk.bin, s.bin, float64(d.n)) < 0.9 && pk.mag <= s.mag {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, pk)
		}
	}
	return kept
}

// usersMatched counts how many estimated users can be given a *distinct*
// peak whose fractional position matches their fingerprint (matchGreedy by
// fractional distance). A single strong peak must not satisfy two users at
// once — that is precisely the situation where a weak user is still buried
// and within-window SIC is required.
func (d *Decoder) usersMatched(peaks []peakObs, ests []userEstimate) int {
	cands := d.candBuf[:0]
	for ui, e := range ests {
		frac := e.offset - math.Floor(e.offset)
		for pi, pk := range peaks {
			pkFrac := pk.bin - math.Floor(pk.bin)
			if fd := math.Abs(dsp.FracDiff(pkFrac, frac)); fd <= d.cfg.MatchTolerance {
				cands = append(cands, matchCand{pi: pi, ui: ui, cost: fd})
			}
		}
	}
	d.candBuf = cands
	return len(d.matchGreedy(cands, len(peaks), len(ests)))
}

// assignGreedy matches peaks to users window by window using the fractional
// offset fingerprint, preferring low fractional distance and then channel
// magnitude consistency (matchGreedy). Each user takes at most one peak per
// window — when inter-symbol interference splits a user across two peaks
// (Fig. 5), the stronger one carries the aligned symbol for sub-half-symbol
// offsets.
func (d *Decoder) assignGreedy(allPeaks [][]peakObs, users []*User) {
	period := float64(d.n)
	for w := range allPeaks {
		peaks := allPeaks[w]
		cands := d.candBuf[:0]
		for pi, pk := range peaks {
			pkFrac := pk.bin - math.Floor(pk.bin)
			for ui, u := range users {
				fd := math.Abs(dsp.FracDiff(pkFrac, u.FracOffset()))
				if fd > d.cfg.MatchTolerance {
					continue
				}
				// Secondary feature: channel magnitude consistency. The peak
				// magnitude ≈ |h|·n for a full-window tone. At high user
				// counts several users' fractional fingerprints collide
				// (birthday paradox over [0,1)), and magnitude becomes the
				// deciding feature — weight it accordingly.
				uMag := cmplxAbs(u.Gain) * float64(d.n)
				magRatio := math.Abs(math.Log((pk.mag + 1e-30) / (uMag + 1e-30)))
				cands = append(cands, matchCand{pi: pi, ui: ui, cost: fd + 0.15*magRatio})
			}
		}
		d.candBuf = cands
		for _, c := range d.matchGreedy(cands, len(peaks), len(users)) {
			peaks[c.pi].user = c.ui
			d.recordSymbol(users[c.ui], w, peaks[c.pi], period)
		}
	}
}

// matchGreedy is the one-to-one greedy matching of peaks to users: it sorts
// cands by cost and takes each candidate whose peak (of npeaks) and user (of
// nusers) are both still free. It returns the pairs it took, in the order it
// took them, in cands' storage.
func (d *Decoder) matchGreedy(cands []matchCand, npeaks, nusers int) []matchCand {
	slices.SortFunc(cands, func(a, b matchCand) int {
		if a.cost < b.cost {
			return -1
		}
		if a.cost > b.cost {
			return 1
		}
		return 0
	})
	usedPeak := grow(&d.usedPeakBuf, npeaks)
	usedUser := grow(&d.usedUserBuf, nusers)
	clear(usedPeak)
	clear(usedUser)
	taken := cands[:0]
	for _, c := range cands {
		if usedPeak[c.pi] || usedUser[c.ui] {
			continue
		}
		usedPeak[c.pi] = true
		usedUser[c.ui] = true
		taken = append(taken, c)
	}
	return taken
}

// recordSymbol converts an assigned peak into the user's data symbol for
// window w and logs the implied per-window offset estimate.
func (d *Decoder) recordSymbol(u *User, w int, pk peakObs, period float64) {
	raw := pk.bin - u.Offset
	sym := int(math.Round(raw))
	sym = ((sym % d.n) + d.n) % d.n
	u.Symbols[w] = sym
	// The residual offset implied by this peak (bin − data) tracks offset
	// stability across the packet.
	obs := pk.bin - float64(sym)
	obs = math.Mod(obs+period, period)
	u.WindowOffsets = append(u.WindowOffsets, obs)
}

// matchCand is a candidate (peak, user) pairing for greedy assignment.
type matchCand struct {
	pi, ui int
	cost   float64
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
