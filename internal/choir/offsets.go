package choir

import (
	"math"
	"math/bits"
	"slices"

	"choir/internal/cpu"
	"choir/internal/dsp"
)

// userEstimate is one transmitter's preamble-derived state. Its slice fields
// are rows of the decoder's perWinBuf and gainWinBuf: valid for the rest of
// the current decode only.
type userEstimate struct {
	offset  float64      // aggregate offset in bins (mod n), sub-bin precision
	gain    complex128   // channel averaged coherently over preamble windows
	power   float64      // mean |h|²
	perWin  []float64    // raw per-window offset estimates (Fig. 7 stability)
	gainWin []complex128 // per-window channel estimates
}

// binObs is one spectral-peak observation during preamble user discovery.
type binObs struct {
	bin float64
	mag float64
}

// obsGroup accumulates a cluster of cross-window observations. Instead of
// retaining every member bin/magnitude it carries the running sums the
// original slice-based code derived from them — the circular-mean components
// (Σcos, Σsin in insertion order) and the magnitude sum — which reproduce
// circularMean and dsp.Mean bit-for-bit while allocating nothing.
type obsGroup struct {
	sx, sy float64 // Σ cos/sin(2π·bin/period), insertion order
	magSum float64
	hits   int
}

// estimatePreamble recovers every discernible user's aggregate offset and
// channel from the preamble windows, applying phased SIC to surface weak
// users buried under strong ones.
func (d *Decoder) estimatePreamble(samples []complex128) []userEstimate {
	p := d.cfg.LoRa
	nWin := p.PreambleLen

	// Working copies of each dechirped preamble window: SIC subtracts
	// reconstructed strong users from these. The window buffers persist on
	// the decoder and are overwritten every decode.
	wins := grow(&d.winsBuf, nWin)
	for w := 0; w < nWin; w++ {
		if d.canceled() {
			return nil
		}
		dech := d.dechirpWindow(samples, w*d.n)
		copy(grow(&wins[w], d.n), dech)
	}

	users := d.estAccum[:0]
	for phase := 0; phase <= d.cfg.SICPhases; phase++ {
		if d.canceled() {
			d.estAccum = users
			return nil
		}
		found := d.findPreambleUsers(wins, users)
		if len(found) == 0 {
			break
		}
		users = append(users, found...)
		if len(users) >= d.cfg.MaxUsers || phase == d.cfg.SICPhases {
			break
		}
		// Subtract every user found so far (jointly re-fit per window) so
		// the next phase can see weaker peaks. A cancellation here is seen
		// by the next phase's poll.
		mSICPhases.Inc()
		st := d.clk.enter(stageSIC)
		d.forEachWindow(windowJob{task: subtractTask, wins: wins, ests: users})
		d.clk.exit(st)
	}
	d.estAccum = users
	slices.SortFunc(users, func(a, b userEstimate) int {
		if a.power > b.power {
			return -1
		}
		if a.power < b.power {
			return 1
		}
		return 0
	})
	users = d.mergeMultipathRays(users)
	if len(users) > d.cfg.MaxUsers {
		users = users[:d.cfg.MaxUsers]
	}
	// Drop "users" so far below the strongest that they can only be SIC
	// reconstruction residue.
	if len(users) > 1 {
		floor := users[0].power * math.Pow(10, -d.cfg.TotalDynamicRangeDB/10)
		keep := users[:1]
		for _, u := range users[1:] {
			if u.power >= floor {
				keep = append(keep, u)
			}
		}
		users = keep
	}
	return users
}

// findPreambleUsers detects peaks that appear consistently across the
// preamble windows and estimates their offsets and channels. Peaks within
// one bin of an already-known user are ignored: after SIC subtraction, small
// reconstruction residue at a strong user's bin must not be re-discovered as
// a ghost user.
func (d *Decoder) findPreambleUsers(wins [][]complex128, known []userEstimate) []userEstimate {
	budget := d.cfg.MaxUsers - len(known)
	if budget <= 0 {
		return nil
	}
	// Each window's observations land in its own slot; concatenated in
	// window order they are the one flat list the grouping pass below
	// reads, whichever lanes scanned the windows.
	slots := grow(&d.scanObs, len(wins))
	if d.forEachWindow(windowJob{task: scanTask, wins: wins, ests: known, obs: slots}) {
		return nil
	}
	obsAll := d.obsBuf[:0]
	for _, s := range slots {
		obsAll = append(obsAll, s...)
	}
	d.obsBuf = obsAll

	// Group observations across windows by circular proximity (< 0.5 bin),
	// matching each observation to the nearest existing group. Groups carry
	// running circular-mean sums instead of member lists (see obsGroup).
	groups := d.groupBuf[:0]
	period := float64(d.n)
	for _, o := range obsAll {
		best, bestDist := -1, 0.5
		for gi := range groups {
			ref := circularMeanFromSums(groups[gi].sx, groups[gi].sy, period)
			if dist := dsp.CircularBinDist(ref, o.bin, period); dist < bestDist {
				best, bestDist = gi, dist
			}
		}
		s, c := math.Sincos(2 * math.Pi * o.bin / period)
		if best >= 0 {
			groups[best].sx += c
			groups[best].sy += s
			groups[best].magSum += o.mag
			groups[best].hits++
		} else {
			groups = append(groups, obsGroup{sx: c, sy: s, magSum: o.mag, hits: 1})
		}
	}
	d.groupBuf = groups

	// A user must appear in at least half the preamble windows. Keep the
	// strongest groups when the budget binds. The sort key reproduces the
	// original mean(mags)*hits expression exactly.
	minHits := (len(wins) + 1) / 2
	slices.SortFunc(groups, func(a, b obsGroup) int {
		ka := a.magSum / float64(a.hits) * float64(a.hits)
		kb := b.magSum / float64(b.hits) * float64(b.hits)
		if ka > kb {
			return -1
		}
		if ka < kb {
			return 1
		}
		return 0
	})
	coarse := d.coarseBuf[:0]
	for _, g := range groups {
		if g.hits >= minHits {
			coarse = append(coarse, circularMeanFromSums(g.sx, g.sy, period))
		}
	}
	d.coarseBuf = coarse
	if len(coarse) == 0 {
		return nil
	}
	coarse = d.validateCandidates(wins, coarse)
	if len(coarse) == 0 {
		return nil
	}
	if len(coarse) > budget {
		coarse = coarse[:budget]
	}

	// Joint per-window refinement: least-squares channels (+ optional
	// residual-minimization of offsets), then aggregate across windows.
	// Estimate j of the decode, known ones first, owns row j of perWinBuf and
	// gainWinBuf, so no phase overwrites an earlier phase's rows; the budget
	// keeps j below MaxUsers.
	nw := len(wins)
	perWin := grow(&d.perWinBuf, d.cfg.MaxUsers*nw)
	gainWin := grow(&d.gainWinBuf, d.cfg.MaxUsers*nw)
	ests := grow(&d.estFound, len(coarse))
	for i := range ests {
		j := (len(known) + i) * nw
		ests[i] = userEstimate{perWin: perWin[j : j+nw], gainWin: gainWin[j : j+nw]}
	}
	if d.forEachWindow(windowJob{task: refineTask, wins: wins, coarse: coarse, ests: ests}) {
		return nil
	}
	for i := range ests {
		ests[i].offset = circularMean(ests[i].perWin, period)
		ests[i].gain = coherentGain(ests[i].gainWin)
		var pw float64
		for _, h := range ests[i].gainWin {
			pw += real(h)*real(h) + imag(h)*imag(h)
		}
		ests[i].power = pw / float64(len(ests[i].gainWin))
	}
	return ests
}

// scanWindow appends to obs, and returns, the peaks of one preamble window
// dech that may be a user not yet in known: the peaks of its padded spectrum
// above PeakThreshold times its noise floor, at most MaxUsers − len(known) + 4
// of them. Peaks more than DynamicRangeDB below the window's strongest are
// deferred to a later SIC phase: at that depth they cannot be told apart
// from the strong peaks' sinc side lobes, so they must wait until the strong
// users are modelled and subtracted.
//
// Two rules reject a known user's subtraction residue while still letting a
// genuine second user hiding under its skirt surface from the residual:
// (1) anything within 0.35 bins of a known user is its own leftover;
// (2) anything within 1.5 bins must carry at least -12 dB of that user's
// power — reconstruction residue sits 20-25 dB down, whereas a real
// neighbour close enough to have been masked is by construction within the
// per-phase dynamic range.
func (d *Decoder) scanWindow(obs []binObs, dech []complex128, known []userEstimate) []binObs {
	nearKnown := func(bin, mag float64) bool {
		for _, u := range known {
			dist := dsp.CircularBinDist(bin, u.offset, float64(d.n))
			if dist < 0.35 {
				return true
			}
			if dist < 1.5 {
				parentMag := math.Sqrt(u.power) * float64(d.n)
				if mag < parentMag*math.Pow(10, -12.0/20) {
					return true
				}
			}
		}
		return false
	}
	relCut := math.Pow(10, -d.cfg.DynamicRangeDB/20)
	mags := d.magnitudes(d.paddedSpectrum(dech))
	st := d.clk.enter(stagePeaks)
	peaks := d.findPeaks(mags, d.cfg.PeakThreshold, d.cfg.MaxUsers-len(known)+4)
	d.clk.exit(st)
	for _, pk := range peaks {
		if nearKnown(pk.Bin, pk.Mag) {
			continue
		}
		if pk.Mag < peaks[0].Mag*relCut {
			continue
		}
		obs = append(obs, binObs{bin: pk.Bin, mag: pk.Mag})
	}
	return obs
}

// refineWindow fits the coarse offsets to preamble window w, dech, and
// stores each user's offset and channel for it in slot w of the user's
// perWin and gainWin.
func (d *Decoder) refineWindow(w int, dech []complex128, coarse []float64, ests []userEstimate) {
	models, _ := d.sweepSegments(dech, coarse, true)
	for i, m := range models {
		ests[i].perWin[w] = m.f
		ests[i].gainWin[w], _ = m.dominant(d.n)
	}
}

// coherentGain averages per-window channel estimates coherently. The
// inter-window phase increment cannot be predicted from the aggregate
// offset — only its CFO component advances the carrier phase between
// windows, and the aggregate folds CFO and timing together — so the
// increment is estimated empirically from consecutive windows and removed
// before averaging.
func coherentGain(gainWin []complex128) complex128 {
	if len(gainWin) == 0 {
		return 0
	}
	if len(gainWin) == 1 {
		return gainWin[0]
	}
	var acc complex128
	for w := 1; w < len(gainWin); w++ {
		prev := gainWin[w-1]
		acc += gainWin[w] * complex(real(prev), -imag(prev))
	}
	phi := math.Atan2(imag(acc), real(acc))
	var sum complex128
	for w, h := range gainWin {
		s, c := math.Sincos(-phi * float64(w))
		sum += h * complex(c, s)
	}
	return sum / complex(float64(len(gainWin)), 0)
}

// mergeMultipathRays collapses candidate users that are resolvable rays of
// one transmitter. A multipath echo delayed by whole samples dechirps into
// a tone with the SAME fractional offset as the direct ray, a small integer
// number of bins away (chirps resolve delay like radar). Two genuinely
// different transmitters in that configuration would be untrackable anyway
// — their fingerprints coincide — so the strongest ray wins either way.
// users must arrive sorted strongest-first.
func (d *Decoder) mergeMultipathRays(users []userEstimate) []userEstimate {
	const maxRaySpreadBins = 4.0
	out := users[:0]
	for _, u := range users {
		uFrac := u.offset - math.Floor(u.offset)
		absorbed := false
		for _, kept := range out {
			kFrac := kept.offset - math.Floor(kept.offset)
			if math.Abs(dsp.FracDiff(uFrac, kFrac)) < d.cfg.MatchTolerance/2 &&
				dsp.CircularBinDist(u.offset, kept.offset, float64(d.n)) <= maxRaySpreadBins {
				absorbed = true
				break
			}
		}
		if !absorbed {
			out = append(out, u)
		}
	}
	return out
}

// validateCandidates weeds out candidate offsets that are artifacts of a
// stronger user's sub-sample timing offset. A fractionally-delayed chirp
// dechirps into a two-segment tone whose short segment is a broad sinc that
// throws spurious peaks several bins around the true one; those peaks repeat
// across preamble windows and so survive the consistency vote. Fitting and
// subtracting candidates strongest-first with the exact two-segment model
// makes such ghosts collapse: whatever explained energy remains for a
// candidate after the stronger ones are removed is genuine.
func (d *Decoder) validateCandidates(wins [][]complex128, coarse []float64) []float64 {
	if len(coarse) <= 1 {
		return coarse
	}
	// Use up to three windows spread across the preamble for the vote.
	probe := []int{0, len(wins) / 2, len(wins) - 1}
	power := grow(&d.powerBuf, len(coarse))
	clear(power)
	for _, w := range probe {
		resid := grow(&d.residBuf, d.n)
		copy(resid, wins[w])
		for i, f := range coarse {
			// The coarse peak position is biased by the candidate's own
			// segment structure; refine it so the subtraction is complete
			// enough (< -25 dB residue) for ghosts to collapse.
			tone := d.slotTone(i, d.searchOffset(resid, f))
			h1, h2, i0 := d.segmentFit(resid, tone)
			p1 := real(h1)*real(h1) + imag(h1)*imag(h1)
			p2 := real(h2)*real(h2) + imag(h2)*imag(h2)
			power[i] += (p1*float64(i0) + p2*float64(d.n-i0)) / float64(d.n)
			subtractSegments(resid, tone, h1, h2, i0)
		}
	}
	floor := power[0] * math.Pow(10, -d.cfg.TotalDynamicRangeDB/10)
	// Ghosts of the strongest user collapse by orders of magnitude once it
	// is subtracted; real users within the phase's dynamic range do not.
	relCut := math.Pow(10, -(d.cfg.DynamicRangeDB+6)/10)
	out := coarse[:0]
	for i, f := range coarse {
		if i > 0 && (power[i] < floor || power[i] < power[0]*relCut) {
			continue
		}
		out = append(out, f)
	}
	return out
}

// subtractUsers removes every estimated user's reconstruction from one
// dechirped preamble window, in place. A fractionally-delayed chirp is not a
// pure tone after dechirping: the transmitter's symbol boundary falls inside
// the receiver window and introduces a constant phase jump of 2π·frac(δ)
// there, splitting the window into two tone segments at the same frequency.
// A single-tone subtraction would leave ~|1−e^{j2πfrac(δ)}|²·L/N of the
// user's energy behind — enough for its broad sinc to masquerade as ghost
// users in the next SIC phase. We therefore subtract each user's two-segment
// model (two complex gains around an estimated boundary), fitted at its
// estimated offset by sweepSegments.
func (d *Decoder) subtractUsers(dech []complex128, users []userEstimate) {
	offs := grow(&d.offsBuf, len(users))
	for i, u := range users {
		offs[i] = u.offset
	}
	_, residual := d.sweepSegments(dech, offs, false)
	copy(dech, residual)
}

// sweepSegments is the leakage modelling of Sec. 5.1 (Algm. 1), extended
// with the segment split a fractional timing offset imposes: it fits every
// tone's channel at offs jointly (fitChannels), then re-fits each tone's
// two-segment model against the residual with every other tone subtracted,
// in two Gauss-Seidel sweeps through the tones. With refine, each re-fit
// first golden-searches the tone's frequency within ±0.5 bin of where it
// stands (searchOffset); without, the frequency stays at offs. Either way the
// fit at that frequency is segmentFit's. It returns each tone's model and the
// residual with every model subtracted, both decoder scratch valid until the
// next sweepSegments call; offs is not modified. Tone i stays in tone slot i
// throughout, at its model's frequency.
func (d *Decoder) sweepSegments(dech []complex128, offs []float64, refine bool) ([]segModel, []complex128) {
	joint := d.fitChannels(dech, offs)
	models := grow(&d.segModels, len(offs))
	residual := grow(&d.residBuf, len(dech))
	copy(residual, dech)
	for i, f := range offs {
		models[i] = segModel{f: f, h1: joint[i], h2: joint[i]}
		subtractTone(residual, d.slotTone(i, f), joint[i])
	}
	for sweep := 0; sweep < 2; sweep++ {
		for i := range models {
			m := &models[i]
			addSegments(residual, d.slotTone(i, m.f), m.h1, m.h2, m.i0)
			if refine {
				m.f = d.searchOffset(residual, m.f)
			}
			tone := d.slotTone(i, m.f)
			m.h1, m.h2, m.i0 = d.segmentFit(residual, tone)
			subtractSegments(residual, tone, m.h1, m.h2, m.i0)
		}
	}
	return models, residual
}

// segModel is a two-segment tone model (gains either side of a boundary):
// what sweepSegments fits for each preamble user and each data peak.
type segModel struct {
	f      float64
	h1, h2 complex128
	i0     int
}

// dominant returns the channel and length of the model's longer segment in
// an n-sample window: the segment that carries the symbol aligned with the
// window.
func (m segModel) dominant(n int) (complex128, int) {
	if m.i0 > n/2 {
		return m.h1, m.i0
	}
	return m.h2, n - m.i0
}

// searchOffset golden-searches the tone frequency within ±0.5 bin of fBins
// for the two-segment fit that explains the most energy (Algm. 1's residual
// minimization) and returns the refined frequency; the caller fits the
// model there with segmentFit.
//
// It scores FineIters+1 candidates, by explained energy alone (the point
// the last step adds only narrows the bracket, so nothing reads its score).
// Each is one dsp.PrefixBySquaring walk, which builds its tone's phasors from
// one math.Sincos by squaring and stores only the prefix sums the scan
// reads, and one segmentScan bounded by the block sums of x, which x shares
// across all of them, and by the gain at the previous candidate's boundary.
//
// A candidate's energy is within 32·N·ε·Σ|x_k|² (ε = 2⁻⁵²) of what dsp.Tone,
// tonePrefix and the scan give at its frequency: the squaring tone is within
// (6N + 2⌈log₂N⌉)·ε of the exact one, and Tone's within 4⌈log₂N⌉·ε (package
// dsp); the derivation is at candidateBound in the tests, which hold it
// (TestCandidateEnergyBound, FuzzCandidateEnergy). So the search takes the
// same branches, and returns the same bits, as one judging candidates by
// dsp.Tone unless two candidates' energies lie within twice that bound of
// each other (TestPrunedScanMatchesFullScan).
func (d *Decoder) searchOffset(x []complex128, fBins float64) float64 {
	st := d.clk.enter(stageResidual)
	n := d.n
	x = x[:n]
	blk := blockSums(grow(&d.blockBuf, n/scanBlock), x)
	prefix := grow(&d.prefixBuf, n+1)
	i0, skipped := -1, 0
	// fit scans the candidate at f and leaves its boundary in i0.
	fit := func(f float64) float64 {
		dsp.PrefixBySquaring(d.toneBuf, prefix, x, f/float64(n))
		var energy float64
		var sk int
		i0, energy, sk = d.segmentScan(prefix, blk, i0)
		skipped += sk
		return energy
	}
	const phi = 0.6180339887498949
	a, b := fBins-0.5, fBins+0.5
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, f2 := fit(x1), fit(x2)
	for i := 1; i <= d.cfg.FineIters; i++ {
		// The last step's new point only moves the bracket: no comparison
		// reads its energy, so it is not scored.
		last := i == d.cfg.FineIters
		if f1 > f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			if !last {
				f1 = fit(x1)
			}
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			if !last {
				f2 = fit(x2)
			}
		}
	}
	mScanBlocks.Add(int64((d.cfg.FineIters + 1) * len(blk)))
	mScanSkipped.Add(int64(skipped))
	d.clk.exit(st)
	return (a + b) / 2
}

// segmentFit fits the two-segment tone model h₁·tone[k] (k < i0) plus
// h₂·tone[k] (k >= i0) to x, choosing the boundary i0 that maximizes the
// explained energy (segmentScan) and forming the two least-squares gains
// there. x and tone are both N = 2^SF samples (it panics otherwise). It scans
// every boundary; searchOffset's candidates take the pruned scan.
func (d *Decoder) segmentFit(x, tone []complex128) (h1, h2 complex128, i0 int) {
	prefix := tonePrefix(grow(&d.prefixBuf, d.n+1), x[:d.n], tone)
	i0, _, _ = d.segmentScan(prefix, nil, -1)
	h1, h2 = segmentGains(prefix, i0)
	return h1, h2, i0
}

// segmentGains forms the two-segment model's least-squares gains at boundary
// i0 from the prefix sums P (N+1): h₁ = P_i0/i0 and h₂ = (P_N − P_i0)/(N−i0),
// each zero when its segment is empty.
func segmentGains(prefix []complex128, i0 int) (h1, h2 complex128) {
	n := len(prefix) - 1
	if i0 > 0 {
		h1 = prefix[i0] / complex(float64(i0), 0)
	}
	if i0 < n {
		h2 = (prefix[n] - prefix[i0]) / complex(float64(n-i0), 0)
	}
	return h1, h2
}

// blockSums fills dst (len(x)/scanBlock) with Σ |re x_k| + |im x_k| over
// each block of scanBlock samples of x, segmentScan's per-block bound on how
// far the prefix sums can move, and returns it. With AVX2 blockSumsAVX2 sums
// whole steps of four blocks, one a lane, and blockSumsGeneric the rest.
func blockSums(dst []float64, x []complex128) []float64 {
	done := 0
	if cpu.AVX2 {
		done = len(dst) &^ 3
		if done > 0 {
			blockSumsAVX2(dst[:done], x[:done*scanBlock])
		}
	}
	blockSumsGeneric(dst[done:], x[done*scanBlock:])
	return dst
}

// blockSumsGeneric is blockSums' Go kernel: the only one off amd64 or
// without AVX2, and the reference the AVX2 kernel is tested against.
func blockSumsGeneric(dst []float64, x []complex128) {
	for b := range dst {
		var s float64
		for _, v := range (*[scanBlock]complex128)(x[b*scanBlock:]) {
			s += math.Abs(real(v)) + math.Abs(imag(v))
		}
		dst[b] = s
	}
}

// segmentScan's block bound (see segmentScan): boundaries are bounded
// scanBlock at a time, a block is skipped only when its bound times
// scanMargin is below the lower bound, and a lower bound at or under
// scanFloor skips nothing.
const (
	scanBlock  = 8
	scanMargin = 1 + 0x1p-20
	scanFloor  = 0x1p-1000
)

// segmentScan searches every boundary of the two-segment model over the
// prefix sums P_i of x against a tone (N+1) in O(N). It returns the boundary
// i0 that explains the most energy (the first, where several tie), that
// energy — |h₁|²·i0 + |h₂|²·(N−i0) for the least-squares gains h₁ = P_i0/i0,
// h₂ = (T−P_i0)/(N−i0), T = P_N — without forming them, and how many blocks
// of boundaries it skipped.
//
// The scan is a CUSUM statistic. With D_i = P_i − (i/N)·T,
//
//	|P_i|²/i + |T−P_i|²/(N−i) = |T|²/N + |D_i|²·N/(i(N−i)):
//
// the energy one tone over the whole window explains, plus what splitting it
// at i adds. Only the second term, the gain g_i, depends on i, it needs no
// T − P_i, and its two weights come from the decoder's table, read in place
// (a copy of the row would round-trip through the stack, 16 bytes on an
// 8-byte-aligned frame). At both ends D is zero and so is the table's second
// entry.
//
// With blk and a boundary hint, a first pass over the blocks (blockBounds)
// marks those the maximum cannot be in in a bitmask, and scanRange scans the
// runs of blocks between its set bits.
// Write S[u,v) for Σ_{u≤k<v} |re x_k| + |im x_k|; blk[b] is S over block b's
// B = scanBlock samples. For a boundary i of the block from a, D_i − D_a adds
// the terms x_k·conj(tone_k), a ≤ k < i, each no larger than
// |re x_k| + |im x_k|, and moves (i−a)/N·T; D_{a+B} − D_i adds and moves the
// rest. So |D_i| ≤ |D_a| + S[a,i) + (i−a)/N·|T| and
// |D_i| ≤ |D_{a+B}| + S[i,a+B) + (a+B−i)/N·|T|, and their mean is
//
//	|D_i| ≤ r = (|D_a|₁ + |D_{a+B}|₁ + blk[a/B] + B/N·|T|₁)/2,  so  g_i ≤ cusumMax[a/B]·r².
//
// The gain at the hint, lower, is one of the gains the maximum is taken
// over; a block whose bound·scanMargin is below it scores strictly below the
// maximum throughout, so none of its boundaries is the first strict maximum,
// and i0 and the energy are the bits the full scan returns
// (TestPrunedScanMatchesFullScan). The hint is the previous fit's boundary,
// and that is the maximum again for most golden-search candidates.
//
// The bound must hold for the computed gains, not only the exact ones (ε =
// 2⁻⁵² below). Relative to r, a computed |D_i| can exceed it by the tone's
// magnitude error — 4⌈log₂N⌉ε for a dsp.Tone, under (6N + 2⌈log₂N⌉)ε for a
// golden-search candidate's dsp.PrefixBySquaring walk — and the product's
// rounding; and by the roundings of the block's B running sums and of the
// D's, each at most ε·(|D| + |T|), where |T| ≤ 2N/B·r because r holds
// B/(2N)·|T|₁. The gain adds its own three roundings and the bound seven. On
// the gain, all of it stays below budget = (16N + 4⌈log₂N⌉ + 64)·ε:
// 1.5·10⁻¹¹ at N = 4096 (SF12), and scanMargin − 1 = 2⁻²⁰ ≈ 9.5·10⁻⁷ is over
// 6·10⁴ times that. Underflow adds an absolute error under 2⁻¹⁰⁶⁰ instead,
// which scanFloor keeps negligible against lower. A NaN or infinite bound,
// or a NaN lower, never skips; with lower = +Inf a skipped block's gains are
// finite. segmentFit has no block sums and scans every boundary in one run.
func (d *Decoder) segmentScan(prefix []complex128, blk []float64, hint int) (i0 int, energy float64, skipped int) {
	n := d.n
	prefix = prefix[:n+1]
	tr, ti := real(prefix[n]), imag(prefix[n])
	cusum := d.cusum[:n+1]
	lower := math.NaN()
	if blk != nil && hint >= 0 {
		lower = cusumGain(prefix[hint], &cusum[hint], tr, ti)
	}
	best, bestGain := 0, math.Inf(-1)
	from := 0 // the boundaries before from are scanned or skipped
	if lower > scanFloor {
		tail := float64(scanBlock) / float64(n) * (math.Abs(tr) + math.Abs(ti))
		skip := grow(&d.skipBuf, (len(d.cusumMax)+63)/64)
		blockBounds(skip, prefix, cusum, d.cusumMax, blk, tr, ti, tail, lower)
		// Walk the runs of set bits: a run of k skipped blocks from block b
		// ends the scanned run before it at b·B and starts the next at
		// (b+k)·B. A run that reaches bit 63 clears the whole word (a shift
		// by 64 is 0) and goes on in the next word's bit 0.
		for w, word := range skip {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				k := bits.TrailingZeros64(^(word >> t))
				a := (w*64 + t) * scanBlock
				if from < a {
					best, bestGain = scanRange(prefix[from:a], cusum[from:a], tr, ti, from, best, bestGain)
				}
				from = a + k*scanBlock
				skipped += k
				word &^= 1<<(t+k) - 1
			}
		}
	}
	best, bestGain = scanRange(prefix[from:], cusum[from:], tr, ti, from, best, bestGain)
	return best, (tr*tr+ti*ti)/float64(n) + bestGain, skipped
}

// blockBounds sets bit b of skip, which it zeroes first, for each block b of
// segmentScan's boundaries that the maximum cannot be in: wmax[b]·r²·
// scanMargin < lower, where r = (|D_a|₁ + |D_{a+B}|₁ + blk[b] + tail)/2 is
// the block's bound on |D_i| (segmentScan). With AVX2 blockBoundsAVX2 bounds
// whole steps of four blocks, one a lane, and blockBoundsGeneric the rest.
func blockBounds(skip []uint64, prefix []complex128, cusum [][2]float64, wmax, blk []float64, tr, ti, tail, lower float64) {
	clear(skip)
	done := 0
	if cpu.AVX2 {
		done = len(wmax) &^ 3
		if done > 0 {
			end := done*scanBlock + 1
			blockBoundsAVX2(skip[:(done+63)/64], prefix[:end], cusum[:end], wmax[:done], blk[:done], tr, ti, tail, lower, cusumDev(prefix[0], &cusum[0], tr, ti))
		}
	}
	blockBoundsGeneric(skip, prefix, cusum, wmax, blk, tr, ti, tail, lower, done)
}

// blockBoundsGeneric is blockBounds' Go kernel over blocks from onward: the
// only one off amd64 or without AVX2, and the reference the AVX2 kernel is
// tested against.
func blockBoundsGeneric(skip []uint64, prefix []complex128, cusum [][2]float64, wmax, blk []float64, tr, ti, tail, lower float64, from int) {
	a := from * scanBlock
	devA := cusumDev(prefix[a], &cusum[a], tr, ti) // |D_a|₁ of the block at hand
	for b := from; b < len(wmax); b++ {
		a += scanBlock
		devB := cusumDev(prefix[a], &cusum[a], tr, ti)
		r := 0.5 * (devA + devB + blk[b] + tail)
		devA = devB
		if wmax[b]*(r*r)*scanMargin < lower {
			skip[b/64] |= 1 << (b % 64)
		}
	}
}

// cusumDev is one boundary's |D|₁ = |re P − w[0]·tr| + |im P − w[0]·ti|,
// T = tr + j·ti, with w the boundary's row of the decoder's table.
func cusumDev(p complex128, w *[2]float64, tr, ti float64) float64 {
	return math.Abs(real(p)-w[0]*tr) + math.Abs(imag(p)-w[0]*ti)
}

// cusumGain is one boundary's gain |P − w[0]·T|²·w[1], T = tr + j·ti, with
// w the boundary's row of the decoder's table.
func cusumGain(p complex128, w *[2]float64, tr, ti float64) float64 {
	dr, di := real(p)-w[0]*tr, imag(p)-w[0]*ti
	return (dr*dr + di*di) * w[1]
}

// scanRange carries the first strict maximum best, bestGain of segmentScan
// through the boundaries base, base+1, … whose prefix sums and table rows
// prefix and cusum hold, and returns it. With AVX2 it runs scanLanesAVX2 on
// the whole steps of four boundaries and scanRangeGeneric on the rest.
//
// The lanes give scanRangeGeneric's result: lane l keeps the first strict
// maximum of boundaries base+4s+l, each gain the same bits, and skips NaN as
// the ordered compare does. The boundary the generic loop returns is the
// first to reach the largest gain, so it is the lane result with the
// largest gain and, among equal gains, the smallest boundary; a lane that
// never rose still holds best, bestGain, and a NaN bestGain stays.
func scanRange(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64) (int, float64) {
	if cpu.AVX2 && len(prefix) >= 4 {
		cusum = cusum[:len(prefix)]
		var lanes scanLanes
		scanLanesAVX2(prefix, cusum, tr, ti, base, best, bestGain, &lanes)
		for l, g := range lanes.gain {
			if i := lanes.best[l]; g > bestGain || g == bestGain && i < best {
				best, bestGain = i, g
			}
		}
		done := len(prefix) &^ 3
		prefix, cusum, base = prefix[done:], cusum[done:], base+done
	}
	return scanRangeGeneric(prefix, cusum, tr, ti, base, best, bestGain)
}

// scanLanes is scanLanesAVX2's result: each lane's maximum and the boundary
// that first reached it.
type scanLanes struct {
	gain [4]float64
	best [4]int
}

// scanRangeGeneric is scanRange's Go kernel: the only one off amd64 or
// without AVX2, and the reference the AVX2 kernel is tested against. Four
// boundaries a step: the running maximum rises a handful of times a scan,
// so one test clears a whole step and the first-strict-maximum bookkeeping
// runs only for the steps that raise it.
func scanRangeGeneric(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64) (int, float64) {
	cusum = cusum[:len(prefix)]
	i := 0
	for ; i+4 <= len(cusum); i += 4 {
		p, w := prefix[i:i+4], cusum[i:i+4]
		g := [4]float64{cusumGain(p[0], &w[0], tr, ti), cusumGain(p[1], &w[1], tr, ti), cusumGain(p[2], &w[2], tr, ti), cusumGain(p[3], &w[3], tr, ti)}
		if g[0] > bestGain || g[1] > bestGain || g[2] > bestGain || g[3] > bestGain {
			for j, gj := range g {
				if gj > bestGain {
					best, bestGain = base+i+j, gj
				}
			}
		}
	}
	for ; i < len(cusum); i++ {
		if g := cusumGain(prefix[i], &cusum[i], tr, ti); g > bestGain {
			best, bestGain = base+i, g
		}
	}
	return best, bestGain
}

// tonePrefix fills dst (len(x)+1) with the running correlation of x against
// a tone, dst[i] = Σ_{k<i} x[k]·conj(tone[k]), and returns it: any segment's
// matched-filter sum is then a difference of two entries.
func tonePrefix(dst, x, tone []complex128) []complex128 {
	dst, tone = dst[:len(x)+1], tone[:len(x)]
	dst[0] = 0
	sums := dst[1:][:len(x)] // sums[k] = dst[k+1], its length known to the loop
	var sr, si float64
	for k, v := range x {
		tr, ti := real(tone[k]), imag(tone[k])
		sr += real(v)*tr + imag(v)*ti
		si += imag(v)*tr - real(v)*ti
		sums[k] = complex(sr, si)
	}
	return dst
}

// subtractTone removes h·tone[k] from x[k] in place; tone is at least as long
// as x. Negating h adds the tone instead. With AVX2 subtractToneAVX2 runs it,
// two samples a step.
func subtractTone(x, tone []complex128, h complex128) {
	tone = tone[:len(x)]
	if cpu.AVX2 {
		subtractToneAVX2(x, tone, h)
		return
	}
	subtractToneGeneric(x, tone, h)
}

// subtractToneGeneric is subtractTone's Go kernel: the only one off amd64 or
// without AVX2, and the reference the AVX2 kernel is tested against.
func subtractToneGeneric(x, tone []complex128, h complex128) {
	tone = tone[:len(x)]
	for k := range x {
		x[k] -= h * tone[k]
	}
}

// subtractSegments removes the two-segment tone model — h1 before the
// boundary index i0, h2 from it on — from x in place.
func subtractSegments(x, tone []complex128, h1, h2 complex128, i0 int) {
	subtractTone(x[:i0], tone, h1)
	subtractTone(x[i0:], tone[i0:], h2)
}

// addSegments re-adds a previously subtracted two-segment model.
func addSegments(x, tone []complex128, h1, h2 complex128, i0 int) {
	subtractSegments(x, tone, -h1, -h2, i0)
}

// fitChannels solves the least-squares channel fit of Eqn. 2 for the given
// offsets (in bins) against one dechirped window: fitSegments with every
// regressor spanning the whole window. The returned slice aliases
// decoder-owned workspace storage and is valid until the next fitChannels /
// fitSegments call; every call site consumes or copies the gains before then.
// Offset j's tone is left in tone slot j.
// Its k×k system is the part of a decode that grows with the square of the
// collision order.
func (d *Decoder) fitChannels(dech []complex128, offsets []float64) []complex128 {
	regs := d.chanRegs[:0]
	for _, f := range offsets {
		regs = append(regs, segReg{f: f, lo: 0, hi: d.n})
	}
	d.chanRegs = regs
	return d.fitSegments(dech, regs)
}

// toneCorrelate returns Σ x[k]·conj(tone[k]) over x's length; tone is at
// least as long as x.
func toneCorrelate(x, tone []complex128) complex128 {
	tone = tone[:len(x)]
	var sr, si float64
	for k, v := range x {
		tr, ti := real(tone[k]), imag(tone[k])
		sr += real(v)*tr + imag(v)*ti
		si += imag(v)*tr - real(v)*ti
	}
	return complex(sr, si)
}

// toneGram returns Σ_{i∈[lo,hi)} e^{j2π·df·i/n}: the inner product of two
// unit tones df bins apart over the sample range both cover — one entry of
// the Gram matrix AᴴA of tone regressors, in closed form. With θ = 2π·df/n
// and m = hi − lo the geometric sum is
//
//	e^{jθ(lo+hi−1)/2} · sin(mθ/2)/sin(θ/2),
//
// the Dirichlet kernel (the paper's sinc leakage between two offsets) at the
// phase of the range's midpoint; it is m where sin(θ/2) vanishes. The sum has
// period n in df, so df is first reduced (exactly) to [−n/2, n/2]: that keeps
// θ/2 inside [−π/2, π/2], where sin is zero only at zero and relatively
// exact near it. An empty range sums to zero.
func toneGram(df float64, lo, hi, n int) complex128 {
	m := hi - lo
	if m <= 0 {
		return 0
	}
	half := math.Pi * math.Remainder(df, float64(n)) / float64(n) // θ/2
	den := math.Sin(half)
	if den == 0 {
		return complex(float64(m), 0)
	}
	mag := math.Sin(float64(m)*half) / den
	s, c := math.Sincos(half * float64(lo+hi-1))
	return complex(mag*c, mag*s)
}

// circularMean averages angles expressed as bin positions on a circle of the
// given period.
func circularMean(bins []float64, period float64) float64 {
	if len(bins) == 0 {
		return 0
	}
	var sx, sy float64
	for _, b := range bins {
		s, c := math.Sincos(2 * math.Pi * b / period)
		sx += c
		sy += s
	}
	return circularMeanFromSums(sx, sy, period)
}

// circularMeanFromSums finishes a circular mean from accumulated Σcos/Σsin.
// Feeding it sums accumulated in element order reproduces circularMean
// bit-for-bit.
func circularMeanFromSums(sx, sy, period float64) float64 {
	ang := math.Atan2(sy, sx)
	if ang < 0 {
		ang += 2 * math.Pi
	}
	return ang / (2 * math.Pi) * period
}
