// Package choir implements the paper's primary contribution: decoding
// collisions of LoRa chirp-spread-spectrum transmissions at a
// single-antenna base station by exploiting the natural hardware offsets
// (carrier-frequency offset, timing offset, channel) of low-cost LP-WAN
// clients.
//
// The pipeline mirrors Sections 4-7 of the paper:
//
//  1. Each received symbol window is dechirped and transformed with a
//     zero-padded FFT, turning every colliding transmitter into a spectral
//     peak at (data + aggregate offset) bins, where the aggregate offset
//     folds together CFO and timing offset via chirp duality.
//  2. Preamble windows (known data = 0) yield each user's aggregate offset.
//     Coarse peak positions are refined to a small fraction of a bin by
//     modelling inter-peak sinc leakage: channels are fit by least squares
//     and the offsets are jittered to minimize the reconstruction residual
//     (Algm. 1), which is locally convex.
//  3. Near-far collisions are handled by phased successive interference
//     cancellation: all simultaneously discernible strong users are
//     estimated jointly and subtracted together before searching for
//     weaker peaks (Sec. 5.2).
//  4. Data windows are matched to users by the fractional part of peak
//     positions (plus channel magnitude), greedily against the preamble
//     estimates — this repository's stand-in for the constrained clustering
//     of Sec. 6.2; inter-symbol interference from timing offsets is
//     de-duplicated (Sec. 6.1).
//  5. Teams of below-noise transmitters sending identical data are detected
//     by coherently accumulating preamble spectra across windows and decoded
//     with a maximum-likelihood search over candidate symbols (Sec. 7.2).
package choir

import (
	"context"
	"errors"
	"fmt"
	"math"

	"choir/internal/ctxutil"
	"choir/internal/dsp"
	"choir/internal/exec"
	"choir/internal/linalg"
	"choir/internal/lora"
)

// Config controls the decoder.
type Config struct {
	// LoRa is the PHY configuration of the colliding transmissions.
	LoRa lora.Params
	// Pad is the zero-padding factor for peak-resolution FFTs. The paper
	// uses 10×; the decoder rounds the FFT length up to the next power of
	// two (so 10 behaves as 16). Must be >= 4 for usable fractional
	// resolution, and at most 64.
	Pad int
	// MaxUsers caps how many colliding transmitters are tracked: 1 to 64.
	MaxUsers int
	// PeakThreshold is the multiple of the spectrum's median magnitude a
	// peak must exceed to count as a user (default 5).
	PeakThreshold float64
	// FineSearch enables residual-minimization refinement of offsets
	// (Sec. 5.1). Disabling it degrades user tracking — the FineCFO
	// ablation bench quantifies how much.
	FineSearch bool
	// FineIters is the number of golden-section iterations per offset per
	// coordinate-descent sweep (default 16).
	FineIters int
	// SICPhases is the number of phased-SIC rounds on the preamble
	// (default 2; 0 disables SIC and loses weak users under near-far).
	SICPhases int
	// DynamicRangeDB is the per-window power range within which peaks are
	// accepted as users in one SIC phase (default 10 dB). Peaks further
	// below the strongest are deferred: they are indistinguishable from the
	// strong users' sinc side lobes until those users are modelled and
	// subtracted — the essence of phased SIC (Sec. 5.2).
	DynamicRangeDB float64
	// TotalDynamicRangeDB is the power span between the strongest and the
	// weakest user the decoder will report (default 35 dB). Anything weaker
	// is indistinguishable from SIC reconstruction residue; transmitters
	// that far down need the team decoding of Sec. 7 instead.
	TotalDynamicRangeDB float64
	// MatchTolerance is the maximum fractional-bin distance for greedy
	// peak-to-user matching (default 0.07). Wider tolerances survive noisier
	// offset estimates but raise the probability that two users' fractional
	// fingerprints collide — the binding constraint on how many concurrent
	// users scale (Sec. 5.2 note 3).
	MatchTolerance float64
}

// The largest Pad and MaxUsers New accepts. A padded spectrum of maxPad·N
// bins is 4 MiB at SF12, and the decoder saturates near ten users (ROADMAP
// item 3), so neither limit binds a useful decoder; past them the padded
// size and the per-user scratch overflow an int.
const (
	maxPad   = 64
	maxUsers = 64
)

// DefaultConfig returns the decoder configuration used in the evaluation.
func DefaultConfig(p lora.Params) Config {
	return Config{
		LoRa:                p,
		Pad:                 10,
		MaxUsers:            16,
		PeakThreshold:       5,
		FineSearch:          true,
		FineIters:           16,
		SICPhases:           2,
		DynamicRangeDB:      10,
		TotalDynamicRangeDB: 35,
		MatchTolerance:      0.07,
	}
}

// Decoder decodes LoRa collisions. Create one with New; it precomputes FFT
// plans and chirp tables and may be reused across packets. A Decoder is not
// safe for concurrent use (it owns scratch buffers); create one per
// goroutine, or borrow per-goroutine instances from a backend.Pool (package
// internal/backend). A decode reads its configuration and its samples and
// nothing an earlier decode left behind, so pooled reuse never changes
// results.
//
// One decode may still use every core: five of its per-window loops share
// their windows with exec.Fan's helper goroutines, each running on a lane —
// a helper Decoder that reads its owner's plans and owns only scratch
// (fan.go). The caller sees one goroutine's contract: results are
// bit-identical for any GOMAXPROCS (TestLaneCountEquivalence), only the
// calling goroutine polls the context, a panic in any window reaches the
// caller (TestFanOutPanicReachesCaller), and no helper outlives the decode
// (TestCancelMidFanOut).
type Decoder struct {
	plans

	scratchDech []complex128
	scratchSpec []complex128
	scratchMags []float64

	// dataWins keeps every dechirped data window of the current decode,
	// pristine: the peak, ML and IC passes all read these buffers (into copies
	// where they mutate) instead of dechirping the same samples again.
	dataWins [][]complex128

	toneBuf []complex128 // the tone scratch, filled by tone and by the golden search's candidate walks (n)

	// toneSlots are the tones a pass reuses, slot j for regressor or user j
	// of the pass (slotTone).
	toneSlots []toneSlot

	// combTones[r] is combSpectrum's detuning tone for r < pad, built the
	// first time a decode asks for r (combTone).
	combTones [][]complex128

	// Every reusable buffer of the pipeline is a named field grown by grow,
	// so a warmed-up decoder decodes without a heap allocation (DESIGN.md
	// §12 has the ownership rules).
	lsWS  linalg.Workspace
	codec lora.CodecScratch

	peakScratch  dsp.PeakScratch
	noiseScratch []float64

	winsBuf   [][]complex128 // preamble working windows (SIC residuals)
	dechCopy  []complex128   // mutable copy of a dechirped window
	residBuf  []complex128   // residual workspace for segment-model sweeps
	workBuf   []complex128   // cleaned-window workspace
	maskedBuf []complex128   // masked / re-added tone workspace
	prefixBuf []complex128   // segmentFit prefix sums (n+1)
	blockBuf  []float64      // segmentFitRefined's per-block sums of |re|+|im| (n/scanBlock)
	prefPrev  []complex128   // accumulateBoundaryScan and splitTwoToneFit prefix sums (n+1)
	prefCur   []complex128
	prefNext  []complex128

	offsBuf     []float64
	scoresBuf   []float64
	powerBuf    []float64
	accBuf      []float64 // DetectTeam accumulated power spectrum
	boundsBuf   []int
	missingBuf  []int
	segModels   []segModel
	regsBuf     []segReg
	chanRegs    []segReg // fitChannels' whole-window regressors
	ownerBuf    []int
	candBuf     []matchCand
	usedPeakBuf []bool
	usedUserBuf []bool
	obsBuf      []binObs
	scanObs     [][]binObs // findPreambleUsers' per-window observations, one slot per preamble window
	groupBuf    []obsGroup
	coarseBuf   []float64
	estFound    []userEstimate
	estAccum    []userEstimate
	perWinBuf   []float64    // estimate j's perWin is row j (MaxUsers rows of one value per preamble window)
	gainWinBuf  []complex128 // estimate j's gainWin, rowed like perWinBuf
	allPeaksBuf [][]peakObs  // one peak list per data window, grown by the lane that extracts it

	// lanes are the helper decoders a fan-out runs windows on, built the
	// first time a fan-out wants them and kept; fan runs the fan-out and job
	// is the one in flight.
	lanes []*Decoder
	fan   exec.Fan
	job   windowJob

	clk stageClock // charges the lane's time to decode stages (metrics.go)

	// ctx/ctxErr hold the active context during a decode. ctxErr
	// latches the first observed cancellation (mapped to ErrCanceled /
	// ErrDeadline) so every later stage-boundary poll short-circuits. Both
	// are cleared when the decode returns, so a pooled decoder carries no
	// cancellation state between checkouts.
	ctx    context.Context
	ctxErr error
}

// plans is what New computes once and a decode only reads, so a decoder's
// lanes share it.
type plans struct {
	cfg      Config
	modem    *lora.Modem
	n        int          // symbol size
	padN     int          // padded FFT size (power of two >= Pad*n)
	pad      int          // effective padding factor padN/n
	fft      *dsp.FFT     // padded-size plan
	symFFT   *dsp.FFT     // symbol-size plan
	cusum    [][2]float64 // cusum[i] = {i/n, n/(i(n−i))}, the second 0 at both ends (n+1): segmentScan's boundary weights
	cusumMax []float64    // cusumMax[b]: the largest cusum[i][1] of boundary block b (n/scanBlock)
}

// newDecoder builds a decoder over p with its fixed-size scratch; every
// other buffer grows on first use.
func newDecoder(p plans) *Decoder {
	return &Decoder{
		plans:       p,
		scratchDech: make([]complex128, p.n),
		scratchSpec: make([]complex128, p.padN),
		scratchMags: make([]float64, p.padN),
		toneBuf:     make([]complex128, p.n),
	}
}

// New validates cfg and builds a decoder.
func New(cfg Config) (*Decoder, error) {
	if err := cfg.LoRa.Validate(); err != nil {
		return nil, err
	}
	if cfg.Pad < 4 || cfg.Pad > maxPad {
		return nil, fmt.Errorf("choir: padding factor %d outside [4, %d]", cfg.Pad, maxPad)
	}
	if cfg.MaxUsers < 1 || cfg.MaxUsers > maxUsers {
		return nil, fmt.Errorf("choir: MaxUsers %d outside [1, %d]", cfg.MaxUsers, maxUsers)
	}
	if cfg.PeakThreshold <= 1 {
		return nil, fmt.Errorf("choir: PeakThreshold %g must exceed 1", cfg.PeakThreshold)
	}
	// Tunables default on zero but error on anything invalid: silently
	// clamping a negative or NaN value would mask a caller bug as the
	// default behavior.
	if cfg.FineIters < 0 {
		return nil, fmt.Errorf("choir: FineIters %d < 0", cfg.FineIters)
	}
	if cfg.FineIters == 0 {
		cfg.FineIters = 16
	}
	if cfg.SICPhases < 0 {
		return nil, fmt.Errorf("choir: SICPhases %d < 0", cfg.SICPhases)
	}
	if cfg.MatchTolerance < 0 || math.IsNaN(cfg.MatchTolerance) {
		return nil, fmt.Errorf("choir: MatchTolerance %g < 0", cfg.MatchTolerance)
	}
	if cfg.MatchTolerance == 0 {
		cfg.MatchTolerance = 0.07
	}
	if cfg.DynamicRangeDB < 0 || math.IsNaN(cfg.DynamicRangeDB) {
		return nil, fmt.Errorf("choir: DynamicRangeDB %g < 0", cfg.DynamicRangeDB)
	}
	if cfg.DynamicRangeDB == 0 {
		cfg.DynamicRangeDB = 10
	}
	if cfg.TotalDynamicRangeDB < 0 || math.IsNaN(cfg.TotalDynamicRangeDB) {
		return nil, fmt.Errorf("choir: TotalDynamicRangeDB %g < 0", cfg.TotalDynamicRangeDB)
	}
	if cfg.TotalDynamicRangeDB == 0 {
		cfg.TotalDynamicRangeDB = 35
	}
	modem, err := lora.NewModem(cfg.LoRa)
	if err != nil {
		return nil, err
	}
	n := cfg.LoRa.N()
	padN := dsp.NextPow2(cfg.Pad * n)
	cusum := make([][2]float64, n+1)
	cusumMax := make([]float64, n/scanBlock)
	for i := range cusum {
		cusum[i][0] = float64(i) / float64(n)
		if i > 0 && i < n {
			cusum[i][1] = float64(n) / (float64(i) * float64(n-i))
			cusumMax[i/scanBlock] = max(cusumMax[i/scanBlock], cusum[i][1])
		}
	}
	return newDecoder(plans{
		cfg:      cfg,
		modem:    modem,
		n:        n,
		padN:     padN,
		pad:      padN / n,
		fft:      dsp.NewFFT(padN),
		symFFT:   dsp.NewFFT(n),
		cusum:    cusum,
		cusumMax: cusumMax,
	}), nil
}

// Config returns the decoder's configuration.
func (d *Decoder) Config() Config { return d.cfg }

// Reseed is accepted and ignored: the decoder keeps no random state, so
// there is nothing to reset. It stays declared only because the frozen
// benchmark/ package calls it (ROADMAP item 9).
func (d *Decoder) Reseed(seed uint64) {}

// User is one transmitter recovered from a collision.
type User struct {
	// Offset is the aggregate hardware offset in FFT bins, modulo the symbol
	// size, with sub-bin precision. Its fractional part is the fingerprint
	// that tracks the user across symbols.
	Offset float64
	// Gain is the estimated complex channel (averaged over the preamble).
	Gain complex128
	// Symbols is the decoded data-symbol sequence.
	Symbols []int
	// Payload is the decoded payload; nil when decoding failed.
	Payload []byte
	// Err records why payload decoding failed (CRC, FEC, tracking loss).
	Err error
	// WindowOffsets are the per-window raw offset estimates (preamble and
	// data), used to characterize offset stability (paper Fig. 7).
	WindowOffsets []float64
}

// FracOffset returns the fractional part of the user's offset in [0,1).
func (u *User) FracOffset() float64 {
	f := u.Offset - math.Floor(u.Offset)
	if f < 0 {
		f += 1
	}
	return f
}

// Decoded reports whether the payload decoded cleanly.
func (u *User) Decoded() bool { return u.Err == nil && u.Payload != nil }

// Result is the outcome of decoding one collision.
type Result struct {
	// Users holds every separated transmitter, strongest first.
	Users []*User
}

// DecodedPayloads returns the payloads of all successfully decoded users.
func (r *Result) DecodedPayloads() [][]byte {
	var out [][]byte
	for _, u := range r.Users {
		if u.Decoded() {
			out = append(out, u.Payload)
		}
	}
	return out
}

// ErrNoUsers is returned when no transmitter is detected in the signal.
var ErrNoUsers = errors.New("choir: no users detected")

// Decode disentangles a collision. samples must start at the nominal slot
// boundary (all transmitters begin within a sub-symbol timing offset of
// sample zero) and contain the full frame; payloadLen is the expected
// payload length in bytes, as fixed by the network's schedule.
//
// Cancellation is cooperative: the decoder polls ctx between pipeline stages
// (preamble windows, SIC phases, data windows, IC sweeps) and returns a
// typed ErrCanceled or ErrDeadline — wrapping ctx.Err() — within one stage
// boundary of the context firing. A context that cannot fire does not
// perturb the decode. The decoder remains valid for reuse after a canceled
// decode (scratch state is rebuilt per call), so pooled decoders need no
// special handling.
func (d *Decoder) Decode(ctx context.Context, samples []complex128, payloadLen int) (*Result, error) {
	res := &Result{}
	if err := d.decode(ctx, res, samples, payloadLen, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// DecodeInto is DecodeCtxInto under a context that never fires, returning
// res for chaining; a nil res allocates a fresh one.
func (d *Decoder) DecodeInto(res *Result, samples []complex128, payloadLen int) (*Result, error) {
	if res == nil {
		return d.Decode(context.Background(), samples, payloadLen)
	}
	return res, d.decode(context.Background(), res, samples, payloadLen, nil)
}

// DecodeCtxInto is Decode recycling the caller's Result: the Users slice,
// the User structs and their Symbols/WindowOffsets/Payload storage are
// reused instead of reallocated, so a warmed-up decoder decoding same-shaped
// collisions performs zero heap allocations per call. res may be the Result
// of any previous decode or an empty &Result{}; it must not be nil and must
// not be in use by another goroutine. It is fully overwritten on success and
// its contents are unspecified on failure. Results are bit-identical to
// Decode's. Backends that pool decoders and Results together call it to
// keep the steady state allocation-free.
func (d *Decoder) DecodeCtxInto(ctx context.Context, res *Result, samples []complex128, payloadLen int) error {
	return d.decode(ctx, res, samples, payloadLen, nil)
}

// decode is the decode pipeline, filling res (whose storage it recycles
// when present). A nil avail means every sample of buf is present;
// otherwise buf is a streaming frame's full backing array that avail
// certifies prefix by prefix (DecodeIncrementalCtxInto). Either way the
// stages run in one order — request check, preamble scan, whole-frame IQ
// validation, data symbols — so a result, error cases included, never
// depends on how the samples arrived:
//
//   - The request check (lora's CheckFrame: payload length, then frame size)
//     reads only len(buf), and refuses before anything is dechirped.
//   - The preamble scan reads only buf[:PreambleLen·N], and is skipped when
//     that prefix contains non-finite samples (the decode is doomed to
//     ErrBadIQ, and the scan's arithmetic is only defined on finite input).
//   - IQ validation (ValidateIQ) is a whole-frame property, so
//     it runs once the full buffer is present and before the scan's
//     estimates are consumed. It mutates nothing, so the stages after it
//     see the scratch state the scan left.
func (d *Decoder) decode(ctx context.Context, res *Result, buf []complex128, payloadLen int, avail AvailFunc) (err error) {
	if res == nil {
		return fmt.Errorf("choir: decode into nil Result")
	}
	d.arm(ctx)
	defer d.disarm()
	sp := mDecodeTimer.Start()
	defer sp.Stop()
	mDecodes.Inc()
	defer func() { countDecodeErr(err) }()
	if err := d.cfg.LoRa.CheckFrame(len(buf), payloadLen); err != nil {
		return err
	}
	if avail == nil {
		avail = func(context.Context, int) error { return nil }
	}
	prefix := d.PreambleSamples()
	if err := avail(ctx, prefix); err != nil {
		return err
	}
	var ests []userEstimate
	if nonFinite(buf[:prefix]) < 0 {
		st := d.clk.enter(stagePreamble)
		ests = d.estimatePreamble(buf)
		d.clk.exit(st)
		if d.canceled() {
			return d.ctxErr
		}
	}
	if err := avail(ctx, len(buf)); err != nil {
		return err
	}
	if err := ValidateIQ(buf); err != nil {
		return err
	}
	if len(ests) == 0 {
		return ErrNoUsers
	}
	mUsersDetected.Add(int64(len(ests)))
	st := d.clk.enter(stageData)
	users := d.decodeData(res, buf, ests, payloadLen)
	d.clk.exit(st)
	if d.canceled() {
		return d.ctxErr
	}
	for _, u := range users {
		countUserOutcome(u)
	}
	res.Users = users
	return nil
}

// arm installs ctx as the active decode context and starts the stage clock.
// Contexts that can never fire — nil, Background, TODO, anything
// ctxutil.CanFire rejects — are not installed, so plain Decode pays nothing
// for the cancellation machinery and produces bit-identical results with or
// without such a context (the contract package ctxutil documents for every
// optional-context layer).
func (d *Decoder) arm(ctx context.Context) {
	d.ctx, d.ctxErr = nil, nil
	if ctxutil.CanFire(ctx) {
		d.ctx = ctx
	}
	d.armClock()
}

// disarm stops the stage clock and clears the decode context.
func (d *Decoder) disarm() {
	d.stopClock()
	d.ctx, d.ctxErr = nil, nil
}

// canceled polls the active decode context once — this is the cooperative
// cancellation point the pipeline stages call at their boundaries — and
// latches the first failure as a typed error in d.ctxErr.
func (d *Decoder) canceled() bool {
	if d.ctxErr == nil && d.ctx != nil {
		d.ctxErr = ContextErr(d.ctx)
	}
	return d.ctxErr != nil
}

// dechirpWindow dechirps the n-sample window starting at off into the
// decoder's scratch buffer and returns it (valid until the next call).
func (d *Decoder) dechirpWindow(samples []complex128, off int) []complex128 {
	st := d.clk.enter(stageDechirp)
	out := lora.Dechirp(d.scratchDech, samples[off:off+d.n], d.modem.Down())
	d.clk.exit(st)
	return out
}

// paddedSpectrum computes the complex zero-padded spectrum of a dechirped
// window into scratch (valid until the next call). The pruned transform skips
// the structurally-zero butterfly stages of the padded input and the former
// zero-then-copy of a padded buffer; the spectrum matches the full transform
// bit-for-bit (up to the sign of zero, invisible through any downstream use).
func (d *Decoder) paddedSpectrum(dech []complex128) []complex128 {
	st := d.clk.enter(stageFFT)
	out := d.fft.TransformPruned(d.scratchSpec, dech)
	d.clk.exit(st)
	return out
}

// tone fills the decoder's tone scratch with e^{j2πk·fBins/N}, k < N — the
// dechirped signature of a transmitter at fBins — and returns it, valid
// until the next tone call. Every per-sample tone of the pipeline comes from
// here: a handful of math.Sincos calls per tone instead of N (see dsp.Tone).
func (d *Decoder) tone(fBins float64) []complex128 {
	return dsp.Tone(d.toneBuf, d.n, fBins/float64(d.n), 0)
}

// toneSlot is one tone a decoder keeps: tone is e^{j2πk·f/N}, k < N, once
// set. A tone depends on f and N alone, so a slot holding f's bits serves a
// later request for f exactly, whichever pass, window or lane built it.
type toneSlot struct {
	f    float64
	set  bool
	tone []complex128
}

// slotTone returns slot j's tone at fBins, bit for bit d.tone(fBins), and
// builds it only when the slot holds another frequency. The tone is valid
// until slot j is asked for another frequency or handed to
// segmentFitRefined.
func (d *Decoder) slotTone(j int, fBins float64) []complex128 {
	s := d.slot(j)
	if !s.set || math.Float64bits(s.f) != math.Float64bits(fBins) {
		dsp.Tone(s.tone, d.n, fBins/float64(d.n), 0)
		s.f, s.set = fBins, true
	}
	return s.tone
}

// slot returns tone slot j with its storage grown to N.
func (d *Decoder) slot(j int) *toneSlot {
	if j >= len(d.toneSlots) {
		grow(&d.toneSlots, j+1)
	}
	s := &d.toneSlots[j]
	grow(&s.tone, d.n)
	return s
}

// combDecide returns the symbol s whose matched filter at s+offset bins is
// strongest over the dechirped window x, or -1 when x is all zero. x is
// consumed (overwritten with the comb spectrum).
//
// The filter bank reads the pad-times zero-padded spectrum X of x at the N
// bins (s·pad + R) mod padN, R = round(offset·pad) = q·pad + r. Those bins
// are a comb: X[j·pad + r] = Σ_k x[k]·e^{−j2πrk/padN}·e^{−j2πjk/N}, the
// N-point DFT of x detuned by r padded bins. One tone multiply and one
// N-point transform therefore stand in for the padN-point transform, 15/16
// of which the decision never reads. The tone multiply and the transform are
// an FFT stage call, so the FFT stage counts one call per transform a frame
// costs, whichever kind.
func (d *Decoder) combDecide(x []complex128, offset float64) int {
	R := specIndex(math.Mod(offset, float64(d.n)), d.pad, d.n)
	q, r := R/d.pad, R%d.pad
	st := d.clk.enter(stageFFT)
	spec := d.combSpectrum(x, r)
	d.clk.exit(st)
	best, bestMag := -1, 0.0
	for s := range spec {
		v := spec[(s+q)&(d.n-1)]
		if m := real(v)*real(v) + imag(v)*imag(v); m > bestMag {
			best, bestMag = s, m
		}
	}
	return best
}

// combSpectrum overwrites x (N samples) with {X[j·pad + r]}, j < N, of its
// zero-padded spectrum X, and returns it.
func (d *Decoder) combSpectrum(x []complex128, r int) []complex128 {
	for k, t := range d.combTone(r) {
		x[k] *= t
	}
	return d.symFFT.Transform(x, x)
}

// combTone returns combSpectrum's tone for r, bit for bit d.tone(−r/pad):
// r takes only pad values and stays fixed per user for a whole frame, so
// the decoder builds each one once and keeps it.
func (d *Decoder) combTone(r int) []complex128 {
	tones := grow(&d.combTones, d.pad)
	if tones[r] == nil {
		tones[r] = dsp.Tone(nil, d.n, -float64(r)/float64(d.pad)/float64(d.n), 0)
	}
	return tones[r]
}

// magnitudes converts a complex spectrum to magnitudes in the decoder's
// scratch slice (valid until the next call). A magnitude is the square root
// of re² + im² wherever that sum is finite and at least 2⁻¹⁰²⁰: the larger
// square is then normal and the smaller one's underflow is under 2⁻⁵⁵ of the
// sum, so the root is within 1.5 ulps of |v|, where math.Hypot's own error
// reaches about 2. Elsewhere — zeros, subnormal and overflowing sums,
// infinities and NaN — it is math.Hypot. The two stay within 2 ulps of each
// other (TestMagnitudesMatchHypot).
func (d *Decoder) magnitudes(spec []complex128) []float64 {
	out := grow(&d.scratchMags, len(spec))
	for i, v := range spec {
		re, im := real(v), imag(v)
		if s := re*re + im*im; s >= 0x1p-1020 && s <= math.MaxFloat64 {
			out[i] = math.Sqrt(s)
		} else {
			out[i] = math.Hypot(re, im)
		}
	}
	return out
}

// grow resizes *buf to length n and returns it. Elements within the old
// capacity keep their values, so a slice of slot slices keeps each slot's
// storage; it reallocates only to grow. Callers that read before they write
// clear what they read.
func grow[T any](buf *[]T, n int) []T {
	if n > cap(*buf) {
		*buf = append((*buf)[:cap(*buf)], make([]T, n-cap(*buf))...)
	}
	*buf = (*buf)[:n]
	return *buf
}

// specAt samples a complex padded spectrum at a fractional natural-bin
// position by nearest-padded-bin lookup.
func specAt(spec []complex128, bin float64, pad, n int) complex128 {
	return spec[specIndex(bin, pad, n)]
}

// specIndex is the padded-spectrum index nearest to a fractional natural-bin
// position.
func specIndex(bin float64, pad, n int) int {
	idx := int(math.Round(bin*float64(pad))) % (n * pad)
	if idx < 0 {
		idx += n * pad
	}
	return idx
}
