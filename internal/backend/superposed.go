package backend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sort"

	"choir/internal/choir"
	"choir/internal/ctxutil"
	"choir/internal/dsp"
	"choir/internal/lora"
)

func init() {
	Register("superposed", func(p lora.Params) (Backend, error) {
		return newSuperposed(p)
	})
}

// superposedBackend decodes colliding LoRa frames directly, in the spirit of
// Abboud et al.'s "Efficient Decoding of Synchronized Colliding LoRa
// Signals": every dechirped window of a roughly synchronized collision is a
// superposition of one spectral tone per transmitter, so the decoder
// partitions each window's spectrum among transmitters instead of cancelling
// them one by one. Transmitters are enumerated from the preamble — where
// everyone sends data 0, so each peak cluster across the preamble windows IS
// one transmitter's aggregate offset fingerprint — and each transmitter's
// data symbols are then read off its OWN fingerprint grid (the n padded bins
// at symbol + offset).
//
// Real slot-synchronized transmitters still miss the boundary by a jittered
// fraction of a symbol, which splits their tones across adjacent receiver
// windows and breaks the superposition picture. The backend recovers each
// transmitter's timing the same way it reads symbols: it scores a coarse
// grid of window alignments by the energy the transmitter's fingerprint
// grid captures, decodes the symbol stream at each alignment in score
// order, and lets the payload CRC arbitrate. No interference cancellation,
// no iterative refinement: FFTs and grid reads only, the cheapest
// multi-user rung in the registry.
type superposedBackend struct {
	p    lora.Params
	n    int
	pad  int
	fft  *dsp.FFT
	down []complex128

	dech  []complex128
	spec  []complex128
	mags  []float64
	noise []float64
	peaks dsp.PeakScratch
	codec lora.CodecScratch

	clusters   []spCluster
	shifts     []int
	shiftSyms  []int
	shiftScore []float64
	shiftWeak  []int
	order      []int
}

// spCluster accumulates one transmitter candidate across preamble windows:
// peak positions are averaged on the circle (offsets live modulo the symbol
// size) and the magnitude arithmetic-averaged.
type spCluster struct {
	sumSin, sumCos float64
	sumMag         float64
	wins           int
	lastWin        int
	offset         float64 // circular-mean position in bins, set by finish
}

// center returns the cluster's current circular-mean position in bins.
func (c *spCluster) center(n int) float64 {
	off := math.Atan2(c.sumSin, c.sumCos) / (2 * math.Pi) * float64(n)
	return math.Mod(off+float64(n), float64(n))
}

var _ Backend = (*superposedBackend)(nil)

func newSuperposed(p lora.Params) (*superposedBackend, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := lora.NewModem(p)
	if err != nil {
		return nil, err
	}
	n := p.N()
	padN := dsp.NextPow2(10 * n)
	// Candidate window alignments: every n/8 across ±n/2, nominal boundary
	// first and small shifts before large so score ties resolve toward the
	// least surprising timing. Covers ±2.5 sigma of the 200 µs slot jitter
	// the urban population model assumes.
	shifts := []int{0}
	for step := n / 8; step <= n/2; step += n / 8 {
		shifts = append(shifts, -step, step)
	}
	return &superposedBackend{
		p:      p,
		n:      n,
		pad:    padN / n,
		fft:    dsp.NewFFT(padN),
		down:   m.Down(),
		dech:   make([]complex128, n),
		spec:   make([]complex128, padN),
		mags:   make([]float64, padN),
		shifts: shifts,
	}, nil
}

func (s *superposedBackend) Name() string        { return "superposed" }
func (s *superposedBackend) Params() lora.Params { return s.p }
func (s *superposedBackend) Reseed(seed uint64)  {}

// superposed tunables. The preamble threshold sits below Choir's default 5×
// floor — with no SIC to surface buried users, the initial search is the
// only chance to see them — and the per-cluster persistence vote across
// preamble windows rejects the noise peaks the lower threshold lets
// through.
const (
	spPreambleThresh = 4.0
	spDataThresh     = 3.5
	spClusterDist    = 0.7 // max circular distance (bins) to join a cluster
	spMaxUsers       = 16
	// spGridSlack widens each fingerprint-grid read to ± this many padded
	// bins (±0.2 bins at pad 10): the preamble offset estimate carries a few
	// tenths of a bin of segmentation bias, and the true tone must not slip
	// between grid points. Kept below half the typical inter-user
	// fingerprint distance so the grid does not capture a neighbour's tone
	// at full strength.
	spGridSlack = 2
	// spDynamicRangeDB is the power span below the strongest cluster within
	// which clusters count as transmitters. Without SIC a strong tone's sinc
	// side lobes persist across the preamble exactly like a real user, so
	// the persistence vote alone cannot reject them; their magnitude can —
	// side lobes sit ≥8 dB down even with timing-offset segmentation. The
	// flip side is the algorithm's documented limit: near-far collisions
	// lose their weak users (Abboud et al. assume comparable powers).
	spDynamicRangeDB = 6.0
)

func (s *superposedBackend) DecodeCtxInto(ctx context.Context, res *choir.Result, samples []complex128, payloadLen int) error {
	if res == nil {
		return fmt.Errorf("superposed: DecodeCtxInto with nil Result")
	}
	need := s.p.FrameSamples(payloadLen)
	if len(samples) < need {
		return fmt.Errorf("%w: have %d samples, need %d", lora.ErrShortSignal, len(samples), need)
	}
	for i, v := range samples {
		re, im := real(v), imag(v)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return fmt.Errorf("%w: sample %d = (%g,%g)", choir.ErrBadIQ, i, re, im)
		}
	}

	// Preamble: cluster peaks across windows into transmitter candidates.
	nWin := s.p.PreambleLen
	s.clusters = s.clusters[:0]
	for w := 0; w < nWin; w++ {
		if err := pollCtx(ctx); err != nil {
			return err
		}
		peaks := s.windowPeaks(samples, w*s.n, spPreambleThresh, spMaxUsers)
		for _, pk := range peaks {
			s.clusterPeak(pk, w)
		}
	}
	// A transmitter's peak persists across the preamble; noise does not.
	kept := s.clusters[:0]
	strongest := 0.0
	for i := range s.clusters {
		c := s.clusters[i]
		if c.wins >= (nWin+1)/2 {
			c.offset = c.center(s.n)
			kept = append(kept, c)
			if m := c.sumMag / float64(c.wins); m > strongest {
				strongest = m
			}
		}
	}
	s.clusters = kept
	// Magnitude gate against side-lobe clusters (see spDynamicRangeDB).
	floor := strongest * math.Pow(10, -spDynamicRangeDB/20)
	kept = s.clusters[:0]
	for i := range s.clusters {
		c := s.clusters[i]
		if c.sumMag/float64(c.wins) >= floor {
			kept = append(kept, c)
		}
	}
	s.clusters = kept
	slices.SortFunc(s.clusters, func(a, b spCluster) int {
		if a.sumMag/float64(a.wins) > b.sumMag/float64(b.wins) {
			return -1
		}
		if a.sumMag/float64(a.wins) < b.sumMag/float64(b.wins) {
			return 1
		}
		return 0
	})
	if len(s.clusters) > spMaxUsers {
		s.clusters = s.clusters[:spMaxUsers]
	}
	if len(s.clusters) == 0 {
		return choir.ErrNoUsers
	}

	// Materialize users, recycling the caller's Result storage.
	nsym := lora.SymbolsPerPayload(payloadLen, s.p.SF, s.p.CR)
	users := res.Users
	if cap(users) < len(s.clusters) {
		grown := make([]*choir.User, len(s.clusters))
		copy(grown, users)
		users = grown
	}
	users = users[:len(s.clusters)]
	for i := range users {
		if users[i] == nil {
			users[i] = &choir.User{}
		}
		u := users[i]
		c := &s.clusters[i]
		u.Offset = c.offset
		u.Gain = complex(c.sumMag/float64(c.wins)/float64(s.n), 0)
		u.Payload = nil
		u.Err = nil
		if cap(u.Symbols) < nsym {
			u.Symbols = make([]int, nsym)
		}
		u.Symbols = u.Symbols[:nsym]
		u.WindowOffsets = u.WindowOffsets[:0]
		for w := 0; w < c.wins; w++ {
			u.WindowOffsets = append(u.WindowOffsets, c.offset)
		}
	}

	// Per-user timing recovery and symbol decode.
	start := s.p.HeaderSymbols() * s.n
	for _, u := range users {
		if err := s.decodeUser(ctx, u, samples, start, nsym, payloadLen); err != nil {
			return err
		}
	}
	res.Users = users
	return nil
}

// decodeUser recovers one transmitter's payload: score every candidate
// window alignment by the energy the user's fingerprint grid captures,
// decode the symbol stream per alignment in score order, first CRC pass
// wins. Only cancellation errors propagate; per-user decode failures land
// in u.Err, as in the Choir pipeline.
func (s *superposedBackend) decodeUser(ctx context.Context, u *choir.User, samples []complex128, start, nsym, payloadLen int) error {
	nShift := len(s.shifts)
	s.shiftSyms = intBuf(s.shiftSyms, nShift*nsym)
	s.shiftScore = f64Buf(s.shiftScore, nShift)
	s.shiftWeak = intBuf(s.shiftWeak, nShift)
	for si, shift := range s.shifts {
		s.shiftScore[si] = -1 // out of bounds → never tried
		if start+shift < 0 || start+shift+nsym*s.n > len(samples) {
			continue
		}
		if err := pollCtx(ctx); err != nil {
			return err
		}
		score, weak := 0.0, 0
		for w := 0; w < nsym; w++ {
			floor := s.windowSpectrum(samples, start+shift+w*s.n)
			sym, mag := s.gridArgmax(u.Offset)
			if mag < floor*spDataThresh {
				weak++
			}
			// Delaying the window by `shift` samples advances the signal,
			// which moves every dechirped tone up by `shift` bins (one bin
			// per sample at critical sampling) — undo it, or every shifted
			// stream arrives rotated by a constant.
			s.shiftSyms[si*nsym+w] = ((sym-shift)%s.n + s.n) % s.n
			score += mag
		}
		s.shiftScore[si] = score
		s.shiftWeak[si] = weak
	}

	// Alignments in descending score order; the stable sort keeps the
	// smaller |shift| first on ties (s.shifts is ordered that way).
	s.order = intBuf(s.order, nShift)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return s.shiftScore[s.order[a]] > s.shiftScore[s.order[b]]
	})

	var firstErr error
	for _, si := range s.order {
		if s.shiftScore[si] < 0 {
			break // remaining alignments were out of bounds
		}
		copy(u.Symbols, s.shiftSyms[si*nsym:(si+1)*nsym])
		var err error
		if weak := s.shiftWeak[si]; weak > nsym/2 {
			// Losing most windows IS the failure: the user faded out after
			// the preamble, so the CRC's complaint about noise-floor argmax
			// symbols would mask the real diagnosis.
			err = fmt.Errorf("%w in %d/%d windows", choir.ErrTrackingLost, weak, nsym)
		} else {
			u.Payload, _, err = lora.DecodeSymbolsInto(&s.codec, u.Payload, u.Symbols, payloadLen, s.p)
		}
		if err == nil {
			u.Err = nil
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	// No alignment decoded: keep the best-scoring alignment's stream and
	// diagnosis.
	if best := s.order[0]; s.shiftScore[best] >= 0 {
		copy(u.Symbols, s.shiftSyms[best*nsym:(best+1)*nsym])
	}
	u.Payload = nil
	u.Err = firstErr
	return nil
}

// windowSpectrum dechirps one symbol window into the padded spectrum and
// magnitudes, returning the window's noise floor.
func (s *superposedBackend) windowSpectrum(samples []complex128, off int) float64 {
	for i := 0; i < s.n; i++ {
		s.dech[i] = samples[off+i] * s.down[i]
	}
	spec := s.fft.TransformPruned(s.spec, s.dech)
	for i, v := range spec {
		s.mags[i] = cmplx.Abs(v)
	}
	s.noise = f64Buf(s.noise, len(s.mags))
	return dsp.NoiseFloorScratch(s.mags, s.noise)
}

// gridArgmax reads the current window's magnitudes on the user's
// fingerprint grid — the n padded bins at (symbol + offset), each widened
// by spGridSlack padded bins — and returns the strongest symbol.
func (s *superposedBackend) gridArgmax(offset float64) (int, float64) {
	padN := len(s.mags)
	best, bestMag := 0, -1.0
	for sym := 0; sym < s.n; sym++ {
		bin := math.Mod(float64(sym)+offset, float64(s.n))
		center := int(math.Round(bin * float64(s.pad)))
		m := 0.0
		for d := -spGridSlack; d <= spGridSlack; d++ {
			idx := ((center+d)%padN + padN) % padN
			if s.mags[idx] > m {
				m = s.mags[idx]
			}
		}
		if m > bestMag {
			best, bestMag = sym, m
		}
	}
	return best, bestMag
}

// windowPeaks dechirps one symbol window, transforms it on the padded grid
// and returns the peaks above threshMult times the noise floor. The returned
// peaks alias the backend's scratch, valid until the next call.
func (s *superposedBackend) windowPeaks(samples []complex128, off int, threshMult float64, maxPeaks int) []dsp.Peak {
	floor := s.windowSpectrum(samples, off)
	return dsp.FindPeaksScratch(&s.peaks, s.mags, dsp.PeakConfig{
		Pad:           s.pad,
		MinSeparation: 0.9,
		Threshold:     floor * threshMult,
		Max:           maxPeaks,
	})
}

// clusterPeak folds one preamble peak into the nearest cluster (circular
// distance under spClusterDist bins), or starts a new cluster. A cluster
// takes at most one peak per window — two peaks in the same window are two
// transmitters by construction.
func (s *superposedBackend) clusterPeak(pk dsp.Peak, w int) {
	best, bestD := -1, spClusterDist
	for i := range s.clusters {
		c := &s.clusters[i]
		if c.lastWin == w {
			continue
		}
		if d := dsp.CircularBinDist(pk.Bin, c.center(s.n), float64(s.n)); d < bestD {
			best, bestD = i, d
		}
	}
	ang := 2 * math.Pi * pk.Bin / float64(s.n)
	sin, cos := math.Sincos(ang)
	if best < 0 {
		s.clusters = append(s.clusters, spCluster{
			sumSin: sin, sumCos: cos, sumMag: pk.Mag, wins: 1, lastWin: w,
		})
		return
	}
	c := &s.clusters[best]
	c.sumSin += sin
	c.sumCos += cos
	c.sumMag += pk.Mag
	c.wins++
	c.lastWin = w
}

// pollCtx is the cooperative cancellation point shared by the non-Choir
// backends, mapping a fired context to the choir error taxonomy exactly as
// choir.Decoder does.
func pollCtx(ctx context.Context) error {
	if !ctxutil.CanFire(ctx) {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := ctx.Err()
		if errors.Is(cause, context.DeadlineExceeded) {
			return fmt.Errorf("%w: %w", choir.ErrDeadline, cause)
		}
		return fmt.Errorf("%w: %w", choir.ErrCanceled, cause)
	default:
		return nil
	}
}

// intBuf and f64Buf grow-and-reuse scratch slices (zeroed by the caller as
// needed).
func intBuf(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func f64Buf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
