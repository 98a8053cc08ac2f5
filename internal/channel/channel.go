// Package channel simulates the urban wireless channel between LP-WAN
// clients and a base station: log-distance path loss with log-normal
// shadowing, additive white Gaussian noise, superposition of many
// transmitters at arbitrary sample offsets, and an ADC quantization floor
// (which bounds how weak a transmitter can be and still register — the
// paper's Sec. 5.2 caveat).
package channel

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// PathLossModel is the log-distance urban propagation model:
// PL(d) = PL0 + 10·n·log10(d/d0) + X_σ, in dB.
type PathLossModel struct {
	// RefLossDB is PL0, the loss at the reference distance (about 31.5 dB at
	// 1 m for 900 MHz free space).
	RefLossDB float64
	// RefDistance is d0 in metres.
	RefDistance float64
	// Exponent is the path-loss exponent n (2 = free space; 2.7-3.5 = urban;
	// the paper's hilly campus with tall buildings behaves like ~3.2).
	Exponent float64
	// ShadowSigmaDB is the standard deviation of log-normal shadowing.
	ShadowSigmaDB float64
}

// LossDB returns the path loss in dB at distance d metres, with a shadowing
// term drawn from rng (pass nil for the deterministic median loss).
func (m PathLossModel) LossDB(d float64, rng *rand.Rand) float64 {
	if d < m.RefDistance {
		d = m.RefDistance
	}
	loss := m.RefLossDB + 10*m.Exponent*math.Log10(d/m.RefDistance)
	if rng != nil && m.ShadowSigmaDB > 0 {
		loss += rng.NormFloat64() * m.ShadowSigmaDB
	}
	return loss
}

// Config describes the receiver-side channel parameters.
type Config struct {
	// NoiseFloorDBm is the thermal-plus-frontend noise power in the receive
	// bandwidth. For 125 kHz at a ~6 dB noise figure: about −117 dBm.
	NoiseFloorDBm float64
	// ADCBits models the receiver's quantizer resolution; 0 disables
	// quantization. Extremely weak signals vanish below the LSB, capping
	// Choir's below-noise gains exactly as the paper notes.
	ADCBits int
	// ADCFullScale is the amplitude mapped to the quantizer's full range.
	ADCFullScale float64
}

// Emission is one transmitter's contribution to the medium.
type Emission struct {
	// Samples is the impaired baseband signal (see radio.Transmitter.Transmit).
	Samples []complex128
	// StartSample is where the emission begins on the shared timeline.
	StartSample int
	// Gain is the complex channel coefficient applied to every sample
	// (path loss amplitude × fading phase), including transmit power.
	Gain complex128
}

// Combine superimposes emissions onto a timeline of the given length,
// adds AWGN of the configured noise floor, and applies ADC quantization.
// Emissions extending past the timeline are truncated; emissions with
// negative start indices contribute only their visible tail.
func Combine(length int, emissions []Emission, cfg Config, rng *rand.Rand) []complex128 {
	out := make([]complex128, length)
	for _, e := range emissions {
		for i, v := range e.Samples {
			t := e.StartSample + i
			if t < 0 {
				continue
			}
			if t >= length {
				break
			}
			out[t] += v * e.Gain
		}
	}
	if rng != nil {
		sigma := NoiseSigma(cfg.NoiseFloorDBm)
		for i := range out {
			out[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
	}
	if cfg.ADCBits > 0 {
		Quantize(out, cfg.ADCBits, cfg.ADCFullScale)
	}
	return out
}

// NoiseSigma converts a noise power in dBm (relative to the same 0 dBm = unit
// amplitude convention as radio.AmplitudeFromDBm) into the per-quadrature
// Gaussian standard deviation.
func NoiseSigma(noiseDBm float64) float64 {
	power := math.Pow(10, noiseDBm/10) // linear power, 0 dBm == 1
	return math.Sqrt(power / 2)
}

// Quantize rounds each I/Q component of x to the grid of a bits-wide ADC
// with the given full-scale amplitude, clipping beyond full scale.
func Quantize(x []complex128, bits int, fullScale float64) {
	if bits <= 0 || fullScale <= 0 {
		panic(fmt.Sprintf("channel: invalid quantizer bits=%d fullScale=%g", bits, fullScale))
	}
	levels := float64(int64(1) << (bits - 1)) // per polarity
	step := fullScale / levels
	q := func(v float64) float64 {
		if v > fullScale {
			v = fullScale
		}
		if v < -fullScale {
			v = -fullScale
		}
		return math.Round(v/step) * step
	}
	for i, v := range x {
		x[i] = complex(q(real(v)), q(imag(v)))
	}
}

// Tap is one ray of a multipath channel.
type Tap struct {
	// DelaySamples is the excess delay of this ray relative to the direct
	// path, in whole samples (at 125 kHz one sample is 8 µs ≈ 2.4 km of
	// excess path, so urban LoRa multipath is 0-2 samples).
	DelaySamples int
	// Gain is the ray's complex amplitude relative to the direct path.
	Gain complex128
}

// ApplyMultipath convolves x with a sparse two-or-more-ray channel: the
// direct path at unit gain plus the given echo taps. The output has the
// same length as x (echo tails beyond it are dropped). LoRa's chirp spread
// spectrum is famously robust to this — the dechirped echo lands in the
// same bin with a phase offset for sub-sample-scale delays, and in an
// adjacent bin otherwise — which the decoder tests verify.
func ApplyMultipath(x []complex128, taps []Tap) []complex128 {
	out := append([]complex128(nil), x...)
	for _, tap := range taps {
		if tap.DelaySamples < 0 {
			panic(fmt.Sprintf("channel: negative multipath delay %d", tap.DelaySamples))
		}
		for i := tap.DelaySamples; i < len(x); i++ {
			out[i] += tap.Gain * x[i-tap.DelaySamples]
		}
	}
	return out
}

// RangeForSNR inverts the median path-loss model: it returns the distance at
// which a client at powerDBm reaches the target per-sample SNR.
func RangeForSNR(targetSNRdB, powerDBm float64, pl PathLossModel, cfg Config) float64 {
	// power − loss(d) − noise == target  =>  loss(d) = power − noise − target
	lossDB := powerDBm - cfg.NoiseFloorDBm - targetSNRdB
	exp := (lossDB - pl.RefLossDB) / (10 * pl.Exponent)
	return pl.RefDistance * math.Pow(10, exp)
}
