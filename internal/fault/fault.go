// Package fault is a deterministic fault-injection layer for the decode
// pipeline: it corrupts baseband IQ at the channel boundary with the
// impairments real LP-WAN gateways face — ADC saturation, dropped-sample
// bursts from receiver overruns, narrowband interferer bursts, mid-frame
// oscillator drift steps, and frame truncation — so the Choir decoder's
// graceful degradation can be measured and regression-tested.
//
// Every Injector is driven by an explicit seed: Apply builds its private
// random stream from the seed it is handed (callers derive one per trial via
// exec.DeriveSeed), so a fault sweep fanned out at any GOMAXPROCS is
// byte-identical to a serial run. An injector at zero intensity is an
// exact no-op — it returns the input unmodified without consuming
// randomness — which anchors every sweep's zero-intensity column to the
// unfaulted decode results.
package fault

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
)

// Class identifies one fault family.
type Class int

// The injectable fault classes.
const (
	// Clip models ADC saturation: I and Q are hard-limited at a rail that
	// shrinks with intensity, flat-topping the waveform. Intensity 1 pins
	// the rail at zero (total saturation).
	Clip Class = iota
	// DropBurst models receiver overruns: bursts of consecutive samples are
	// lost (zeroed, preserving frame alignment). Intensity is the fraction
	// of the signal destroyed, up to half at intensity 1.
	DropBurst
	// Interferer adds narrowband tone bursts — another network's carrier,
	// an FSK beacon — at random frequencies. Intensity scales both burst
	// power (up to ~18 dB over the signal RMS) and burst count.
	Interferer
	// DriftStep applies a mid-frame oscillator frequency step: from a random
	// sample onward the signal picks up a phase ramp, breaking the
	// offset-stability assumption Choir's user tracking relies on.
	// Intensity 1 steps by about one natural FFT bin at SF8.
	DriftStep
	// Truncate cuts the tail of the frame, as when capture stops early or a
	// scheduler misjudges the slot length. Intensity is the fraction cut,
	// up to 90 % at intensity 1.
	Truncate

	numClasses
)

// Classes returns every fault class, in declaration order.
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// String implements fmt.Stringer; the names round-trip through ParseClass.
func (c Class) String() string {
	switch c {
	case Clip:
		return "clip"
	case DropBurst:
		return "drop"
	case Interferer:
		return "interferer"
	case DriftStep:
		return "drift"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass inverts Class.String (case-insensitive).
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown class %q (one of %v)", s, Classes())
}

// Injector corrupts IQ sample streams with one fault class at a fixed
// intensity. It is stateless and safe for concurrent use: all
// per-application randomness comes from the seed passed to Apply. Class
// dispatch keeps the per-class corruption routines next to each other and
// the constructor trivially exhaustive.
type Injector struct {
	class     Class
	intensity float64
}

// New builds an injector for the class at the given intensity in [0, 1].
func New(class Class, intensity float64) (*Injector, error) {
	if math.IsNaN(intensity) || intensity < 0 || intensity > 1 {
		return nil, fmt.Errorf("fault: intensity %g outside [0,1]", intensity)
	}
	if class < 0 || class >= numClasses {
		return nil, fmt.Errorf("fault: unknown class %d", int(class))
	}
	return &Injector{class: class, intensity: intensity}, nil
}

// Class reports the injector's fault family.
func (in *Injector) Class() Class { return in.class }

// Intensity reports the configured intensity in [0, 1].
func (in *Injector) Intensity() float64 { return in.intensity }

// String names the class and the intensity, as in "drop@0.4".
func (in *Injector) String() string { return fmt.Sprintf("%s@%g", in.class, in.intensity) }

// Apply corrupts samples in place and returns the surviving slice (a prefix
// of the input for truncating faults, the input itself otherwise). The seed
// fully determines the corruption; intensity zero returns samples
// untouched.
func (in *Injector) Apply(samples []complex128, seed uint64) []complex128 {
	if in.intensity == 0 || len(samples) == 0 {
		return samples
	}
	mHits[in.class].Inc()
	rng := rand.New(rand.NewPCG(seed, seed^(0xFA17<<8|uint64(in.class))))
	switch in.class {
	case Clip:
		clip(samples, in.intensity)
	case DropBurst:
		dropBursts(samples, in.intensity, rng)
	case Interferer:
		interfere(samples, in.intensity, rng)
	case DriftStep:
		driftStep(samples, in.intensity, rng)
	case Truncate:
		return truncate(samples, in.intensity)
	}
	return samples
}

// clip hard-limits both quadratures at rail = (1-intensity)·peak, where peak
// is the largest component magnitude in the signal — the fault an AGC
// misjudgment or an overdriven LNA produces. Deterministic (no randomness):
// saturation is a property of the waveform, not of noise.
func clip(x []complex128, intensity float64) {
	peak := 0.0
	for _, v := range x {
		if a := math.Abs(real(v)); a > peak {
			peak = a
		}
		if a := math.Abs(imag(v)); a > peak {
			peak = a
		}
	}
	rail := (1 - intensity) * peak
	lim := func(v float64) float64 {
		if v > rail {
			return rail
		}
		if v < -rail {
			return -rail
		}
		return v
	}
	for i, v := range x {
		x[i] = complex(lim(real(v)), lim(imag(v)))
	}
}

// dropBursts zeroes random runs of samples until intensity/2 of the signal is
// gone. Mean burst length is 64 samples — the short overruns a busy USB or
// network transport produces — so even small intensities punch symbol-scale
// holes.
func dropBursts(x []complex128, intensity float64, rng *rand.Rand) {
	const meanBurst = 64
	target := int(intensity * 0.5 * float64(len(x)))
	dropped := 0
	// Overlapping bursts re-zero samples; bound the loop so pathological
	// overlap cannot spin forever.
	for tries := 0; dropped < target && tries < len(x); tries++ {
		start := rng.IntN(len(x))
		length := 1 + rng.IntN(2*meanBurst)
		for i := start; i < start+length && i < len(x); i++ {
			x[i] = 0
			dropped++
		}
	}
}

// interfere adds narrowband complex tone bursts at random frequencies. Burst
// amplitude scales with the signal RMS so the same intensity means the same
// interference-to-signal ratio at any receive power.
func interfere(x []complex128, intensity float64, rng *rand.Rand) {
	var pw float64
	for _, v := range x {
		pw += real(v)*real(v) + imag(v)*imag(v)
	}
	rms := math.Sqrt(pw / float64(len(x)))
	if rms == 0 {
		return
	}
	amp := rms * intensity * 8 // up to ~18 dB over the signal RMS
	bursts := 1 + int(intensity*3)
	for b := 0; b < bursts; b++ {
		f := rng.Float64() // cycles/sample, anywhere in the band
		phase := rng.Float64() * 2 * math.Pi
		start := rng.IntN(len(x))
		dur := 1 + int(float64(len(x))*(0.05+0.25*rng.Float64()))
		for i := start; i < start+dur && i < len(x); i++ {
			s, c := math.Sincos(2*math.Pi*f*float64(i-start) + phase)
			x[i] += complex(amp*c, amp*s)
		}
	}
}

// driftStep multiplies the tail of the signal, from a random mid-frame
// sample onward, by a phase ramp e^{j2πΔf·(i-t0)}: an oscillator settling
// jump or thermal step. Δf scales to about one SF8 FFT bin (1/256
// cycles/sample) at intensity 1 — far beyond the fractional-bin stability
// Choir's fingerprint tracking assumes.
func driftStep(x []complex128, intensity float64, rng *rand.Rand) {
	t0 := len(x)/4 + rng.IntN(len(x)/2+1)
	df := intensity / 256
	if rng.IntN(2) == 0 {
		df = -df
	}
	for i := t0; i < len(x); i++ {
		s, c := math.Sincos(2 * math.Pi * df * float64(i-t0))
		x[i] *= complex(c, s)
	}
}

// truncate returns the prefix that survives cutting intensity·90 % of the
// signal. Deterministic: how much capture is lost is the sweep variable,
// not a random draw.
func truncate(x []complex128, intensity float64) []complex128 {
	cut := int(intensity * 0.9 * float64(len(x)))
	return x[:len(x)-cut]
}
