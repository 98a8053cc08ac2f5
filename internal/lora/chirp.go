package lora

import (
	"fmt"
	"math"
	"math/cmplx"

	"choir/internal/dsp"
)

// UpChirp returns the base up-chirp for symbol size n: a signal whose
// instantaneous frequency sweeps linearly from −BW/2 to +BW/2 over one
// symbol (n samples at critical sampling). Symbol value 0 is exactly this
// chirp; other symbols are cyclic frequency shifts of it.
func UpChirp(n int) []complex128 {
	c := make([]complex128, n)
	for i := 0; i < n; i++ {
		// φ(i) = π·i²/n − π·i ; f(i) = dφ/di /2π = i/n − 1/2 ∈ [−½, ½).
		t := float64(i)
		phase := math.Pi * (t*t/float64(n) - t)
		s, cos := math.Sincos(phase)
		c[i] = complex(cos, s)
	}
	return c
}

// DownChirp returns the complex conjugate of the base up-chirp, used to
// dechirp received symbols (the C⁻¹ of the paper).
func DownChirp(n int) []complex128 {
	return dsp.Conj(UpChirp(n))
}

// ModulateSymbol returns the chirp for symbol value sym at spreading factor
// determined by n = 2^SF: the base up-chirp cyclically shifted so its sweep
// starts at frequency offset sym/n of the bandwidth. sym must be in [0, n).
func ModulateSymbol(base []complex128, sym int) []complex128 {
	n := len(base)
	if sym < 0 || sym >= n {
		panic(fmt.Sprintf("lora: symbol %d out of range [0,%d)", sym, n))
	}
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		// Frequency shift by sym/n cycles/sample; the chirp aliases naturally
		// because the sweep wraps at the band edge.
		s, c := math.Sincos(2 * math.Pi * float64(sym) * float64(i) / float64(n))
		out[i] = base[i] * complex(c, s)
	}
	return out
}

// DownChirpSymbol is the sentinel symbol value that marks an SFD down-chirp
// in a frame's symbol sequence (see Modem.FrameSymbols and
// ModulateFrameShifted).
const DownChirpSymbol = -1

// symbolPhase returns the transmitted phase of the continuous-time chirp for
// symbol value sym at local time tau in [0, n) samples. The model is the
// aliased baseband form x(t) = up(t)·e^{j2πs·t/n}, which matches
// ModulateSymbol exactly at integer sample instants and defines the signal a
// receiver with a shifted sampling clock observes between them. The
// DownChirpSymbol sentinel selects the conjugate (down) chirp.
func symbolPhase(n int, sym int, tau float64) float64 {
	if sym == DownChirpSymbol {
		return -math.Pi * (tau*tau/float64(n) - tau)
	}
	return math.Pi*(tau*tau/float64(n)-tau) + 2*math.Pi*float64(sym)*tau/float64(n)
}

// ModulateFrameShifted renders a whole frame's symbol sequence (preamble,
// sync and data values, in order) sampled at instants t_g = g − shift for
// g = 0..len(syms)·n−1, modelling a transmitter whose symbol clock leads or
// lags the receiver grid by a fraction of a sample. shift must satisfy
// |shift| < n. Samples that fall before the frame or after its end are zero.
//
// This analytic resampling is exact for the piecewise-chirp signal model —
// unlike FFT-based fractional delay, it does not ring at the chirp's
// band-edge wraps, so simulated timing offsets behave like real ones.
func ModulateFrameShifted(base []complex128, syms []int, shift float64) []complex128 {
	n := len(base)
	total := len(syms) * n
	out := make([]complex128, total)
	for g := 0; g < total; g++ {
		t := float64(g) - shift
		if t < 0 || t >= float64(total) {
			continue
		}
		k := int(t) / n
		tau := t - float64(k*n)
		s, c := math.Sincos(symbolPhase(n, syms[k], tau))
		out[g] = complex(c, s)
	}
	return out
}

// FrameSymbols returns the full symbol sequence of a frame (preamble, sync,
// SFD down-chirps, coded payload) for use with ModulateFrameShifted. SFD
// positions carry the DownChirpSymbol sentinel.
func (m *Modem) FrameSymbols(payload []byte) []int {
	p := m.Params
	syms := make([]int, 0, p.HeaderSymbols())
	for i := 0; i < p.PreambleLen; i++ {
		syms = append(syms, 0)
	}
	sync := p.SyncSymbols()
	syms = append(syms, sync[0], sync[1])
	for i := 0; i < p.SFDLen; i++ {
		syms = append(syms, DownChirpSymbol)
	}
	return append(syms, EncodeSymbols(payload, p)...)
}

// Dechirp multiplies one received symbol by the down-chirp, concentrating
// each transmitter's energy into a tone whose frequency encodes
// symbol value + aggregate hardware offset. The result is written into dst
// (allocated if nil) and returned.
func Dechirp(dst, sym, down []complex128) []complex128 {
	if len(sym) != len(down) {
		panic(fmt.Sprintf("lora: dechirp length mismatch %d != %d", len(sym), len(down)))
	}
	if len(dst) != len(sym) {
		dst = make([]complex128, len(sym))
	}
	for i := range sym {
		dst[i] = sym[i] * down[i]
	}
	return dst
}

// DemodulateSymbol recovers the most likely symbol value from one received
// chirp using the standard dechirp-and-argmax method. It returns the symbol
// and the complex FFT value at the winning bin (whose magnitude indicates
// confidence and whose phase estimates the channel).
func DemodulateSymbol(sym, down []complex128, fft *dsp.FFT) (int, complex128) {
	n := len(sym)
	d := Dechirp(nil, sym, down)
	spec := fft.Transform(nil, d)
	best, bestMag := 0, 0.0
	for k := 0; k < n; k++ {
		if m := cmplx.Abs(spec[k]); m > bestMag {
			best, bestMag = k, m
		}
	}
	return best, spec[best]
}

// Modem bundles the precomputed chirps and FFT for one PHY configuration.
// It is safe for concurrent use once constructed.
type Modem struct {
	Params Params
	up     []complex128
	down   []complex128
	fft    *dsp.FFT
}

// NewModem validates p and precomputes its chirp tables.
func NewModem(p Params) (*Modem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	return &Modem{
		Params: p,
		up:     UpChirp(n),
		down:   DownChirp(n),
		fft:    dsp.NewFFT(n),
	}, nil
}

// MustModem is NewModem that panics on invalid parameters, for tests and
// examples with static configurations.
func MustModem(p Params) *Modem {
	m, err := NewModem(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Up returns the base up-chirp (shared; callers must not modify it).
func (m *Modem) Up() []complex128 { return m.up }

// Down returns the base down-chirp (shared; callers must not modify it).
func (m *Modem) Down() []complex128 { return m.down }

// Symbol modulates one symbol value into a fresh sample slice.
func (m *Modem) Symbol(sym int) []complex128 { return ModulateSymbol(m.up, sym) }

// DemodulateChirp recovers the symbol value of one received chirp.
func (m *Modem) DemodulateChirp(sym []complex128) (int, complex128) {
	return DemodulateSymbol(sym, m.down, m.fft)
}
