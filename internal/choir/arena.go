package choir

// This file implements the decoder's per-decode scratch arena. The decode hot
// path used to allocate thousands of short-lived slices per packet (window
// copies, residual workspaces, per-user estimate vectors, peak lists); the
// arena replaces them with bump allocations from decoder-owned slabs that are
// recycled wholesale at the start of every decode, so a warmed-up decoder
// performs zero heap allocations in steady state (see BenchmarkDecodeSteadyState).
//
// Ownership rules (documented in DESIGN.md §12):
//
//   - One arena per Decoder, drawn from only by the goroutine that called
//     the decode, so slab access needs no synchronization. A fan-out's
//     helper lanes (fan.go) draw from no arena: the decoding goroutine takes
//     each window's slices before it fans the windows out, in window order,
//     so a slab's high-water mark never depends on which lane ran which
//     window, and a lane writes only inside the slices of the windows it
//     runs (TestLaneCountEquivalence, TestFanOutSteadyStateZeroAllocs).
//     Pooled decoders (internal/backend.Pool) carry their warmed arenas
//     across checkouts — reuse never changes results because every slab
//     allocation is zeroed or fully overwritten before use.
//   - Arena-backed slices live at most until the END of the current decode
//     (estimates produced by the preamble stage are consumed by the data
//     stage of the same decode). Anything that escapes into a Result is
//     copied into caller-visible storage.
//   - reset() runs at decode entry, never mid-decode, so no stage can
//     invalidate another stage's slices.

// slab is a typed bump allocator. take/takeCap hand out three-index slices so
// an append beyond a slice's declared capacity can never clobber a later
// allocation — it falls back to the heap instead (counted as spill so the
// slab grows before the next decode and the spill never recurs).
type slab[T any] struct {
	buf   []T
	off   int
	spill int
}

// reset recycles the slab for a new decode, growing the backing store to the
// previous decode's high-water mark so steady-state decodes never spill.
func (s *slab[T]) reset() {
	if need := s.off + s.spill; need > len(s.buf) {
		s.buf = make([]T, need)
	}
	s.off, s.spill = 0, 0
}

// takeCap returns a zero-length slice with capacity n for append-style use.
func (s *slab[T]) takeCap(n int) []T {
	if s.off+n > len(s.buf) {
		s.spill += n
		return make([]T, 0, n)
	}
	out := s.buf[s.off : s.off : s.off+n]
	s.off += n
	return out
}

// take returns a zeroed slice of length n.
func (s *slab[T]) take(n int) []T {
	out := s.takeCap(n)[:n]
	var zero T
	for i := range out {
		out[i] = zero
	}
	return out
}

// arena groups the typed slabs the decode pipeline draws from.
type arena struct {
	c128 slab[complex128]
	f64  slab[float64]
	pk   slab[peakObs]
}

func (a *arena) reset() {
	a.c128.reset()
	a.f64.reset()
	a.pk.reset()
}

// segModel is a two-segment tone model (gains either side of a boundary),
// shared by the preamble refinement and data-path peak refinement.
type segModel struct {
	f      float64
	h1, h2 complex128
	i0     int
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

// matchCand is a candidate (peak, user) pairing for greedy assignment.
type matchCand struct {
	pi, ui int
	cost   float64
}
