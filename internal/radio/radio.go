// Package radio models the analog front end of low-cost LP-WAN client
// hardware: crystal-oscillator carrier-frequency offsets, sub-symbol timing
// offsets, random initial phase, and transmit power. These imperfections are
// the raw material Choir turns into a user-separation mechanism (Sec. 4-6 of
// the paper), so their statistics matter: offsets must be stable within a
// packet (~10 ms) but diverse across boards, matching Fig. 7.
package radio

import (
	"fmt"
	"math"
	"math/rand/v2"

	"choir/internal/dsp"
	"choir/internal/lora"
)

// Oscillator describes one client's crystal error.
type Oscillator struct {
	// PPM is the frequency error of the crystal in parts per million.
	// Cheap LP-WAN crystals are ±10-20 ppm; at a 902 MHz carrier, 1 ppm is
	// 902 Hz of carrier-frequency offset. Within a packet the offset is
	// modelled constant, which Fig. 7(c,d) validates.
	PPM float64
}

// CFO returns the carrier-frequency offset in Hz at the given carrier
// frequency.
func (o Oscillator) CFO(carrierHz float64) float64 { return o.PPM * 1e-6 * carrierHz }

// Transmitter is one LP-WAN client radio. The zero value is unusable; create
// transmitters with NewPopulation or assemble the fields explicitly.
type Transmitter struct {
	// ID identifies the client across the simulation.
	ID int
	// Osc is the client's oscillator error.
	Osc Oscillator
	// TimingOffset is the client's transmission start error in seconds
	// relative to its slot (beacon-synchronized clients still differ by
	// propagation and interrupt latency; the paper measures sub-symbol
	// offsets, i.e. < ~2 ms at SF8/125 kHz).
	TimingOffset float64
	// PowerDBm is the transmit power in dBm (LP-WAN clients: ~14 dBm max).
	PowerDBm float64
	// Phase is the random initial carrier phase in radians, new per packet.
	Phase float64
}

// String implements fmt.Stringer.
func (t *Transmitter) String() string {
	return fmt.Sprintf("tx%d(ppm=%.2f, dt=%.2fus, P=%.1fdBm)", t.ID, t.Osc.PPM, t.TimingOffset*1e6, t.PowerDBm)
}

// PopulationConfig controls the statistics of a simulated board population.
type PopulationConfig struct {
	// CarrierHz is the RF carrier (902 MHz in the paper's deployment).
	CarrierHz float64
	// MaxPPM bounds the uniform crystal-error distribution: PPM ~ U(−MaxPPM,
	// +MaxPPM). The paper's Fig. 7(a,b) shows offsets spread uniformly over
	// the measurable range, which a uniform ppm model reproduces.
	MaxPPM float64
	// TimingJitter is the standard deviation in seconds of the
	// beacon-response timing error of each client.
	TimingJitter float64
	// PowerDBm is the nominal client transmit power.
	PowerDBm float64
}

// DefaultPopulation mirrors the paper's SX1276 testbed: 902 MHz carrier,
// ±15 ppm crystals, ~200 µs timing jitter, 14 dBm clients.
func DefaultPopulation() PopulationConfig {
	return PopulationConfig{
		CarrierHz:    902e6,
		MaxPPM:       15,
		TimingJitter: 200e-6,
		PowerDBm:     14,
	}
}

// NewPopulation creates n transmitters with independently drawn hardware
// offsets using the provided random source.
func NewPopulation(n int, cfg PopulationConfig, rng *rand.Rand) []*Transmitter {
	txs := make([]*Transmitter, n)
	for i := range txs {
		txs[i] = &Transmitter{
			ID:           i,
			Osc:          Oscillator{PPM: (rng.Float64()*2 - 1) * cfg.MaxPPM},
			TimingOffset: rng.NormFloat64() * cfg.TimingJitter,
			PowerDBm:     cfg.PowerDBm,
			Phase:        rng.Float64() * 2 * math.Pi,
		}
	}
	return txs
}

// Transmit renders a complete frame through the modem with this
// transmitter's impairments applied at generation time: the fractional part
// of the timing offset shifts the chirp sampling instants analytically (no
// interpolation artifacts), the CFO phase ramp and initial phase are applied
// on top, and the whole-sample part of the delay is returned for the channel
// combiner to apply when placing the emission.
func (t *Transmitter) Transmit(m *lora.Modem, payload []byte, carrierHz float64) (sig []complex128, wholeSampleDelay int) {
	p := m.Params
	delaySamples := t.TimingOffset * p.Bandwidth
	whole := int(math.Floor(delaySamples))
	frac := delaySamples - float64(whole)

	syms := m.FrameSymbols(payload)
	sig = lora.ModulateFrameShifted(m.Up(), syms, frac)
	cfoCycles := t.Osc.CFO(carrierHz) / p.Bandwidth
	sig = dsp.FreqShift(sig, cfoCycles)
	dsp.Rotate(sig, t.Phase)
	return sig, whole
}

// AmplitudeFromDBm converts a transmit power in dBm into a baseband signal
// amplitude, normalizing 0 dBm to unit amplitude. Only relative powers
// matter in the simulation; the channel applies path loss on top.
func AmplitudeFromDBm(dbm float64) float64 {
	return math.Pow(10, dbm/20)
}
