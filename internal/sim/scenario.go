// Package sim is the experiment harness: it wires the testbed geometry,
// radio hardware models, urban channel, LoRa PHY, Choir decoder, MAC engine,
// MU-MIMO baseline and sensor field into the parameter sweeps that
// regenerate every table and figure of the paper's evaluation (Sec. 9).
// Each FigXX function returns plot-ready series; cmd/choir-sim and the
// repository-level benchmarks print them.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"choir/internal/channel"
	"choir/internal/choir"
	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/radio"
)

// UrbanChannel returns the path-loss model calibrated to the paper's
// deployment: with 14 dBm clients and the receiver noise floor below, the
// minimum-rate (SF12-equivalent) decode threshold is reached at roughly
// 1 km — the single-client range the paper measures around its hilly,
// built-up campus — and a 30-node team's ~14.8 dB power pooling extends it
// by 30^(1/3.5) ≈ 2.64×, matching the observed 2.65×.
func UrbanChannel() channel.PathLossModel {
	return channel.PathLossModel{RefLossDB: 40, RefDistance: 1, Exponent: 3.5, ShadowSigmaDB: 6}
}

// ReceiverConfig returns the base-station front-end model (USRP-class noise
// figure and a 12-bit ADC).
func ReceiverConfig() channel.Config {
	return channel.Config{NoiseFloorDBm: -110, ADCBits: 12, ADCFullScale: 4}
}

// ClientPowerDBm is the LP-WAN client transmit power used throughout.
const ClientPowerDBm = 14

// DemodThresholdDB returns the approximate per-sample SNR (dB) at which the
// standard LoRa receiver decodes reliably at a given spreading factor; the
// 2^SF dechirping gain buys 2.5 dB per SF step (SX1276 datasheet values).
func DemodThresholdDB(sf lora.SpreadingFactor) float64 {
	return -7.5 - 2.5*float64(int(sf)-7)
}

// SFForSNR returns the fastest spreading factor whose demodulation
// threshold the given per-sample SNR clears with a 1 dB margin, mirroring
// LoRaWAN rate adaptation (Sec. 3). ok is false when even SF12 is out of
// reach.
func SFForSNR(snrDB float64) (lora.SpreadingFactor, bool) {
	for sf := lora.SF7; sf <= lora.SF12; sf++ {
		if snrDB >= DemodThresholdDB(sf)+1 {
			return sf, true
		}
	}
	return lora.SF12, false
}

// ParamsForSF returns the PHY configuration rate adaptation uses at sf:
// the default parameters with code rate 4/6 up to SF8 and 4/8 above.
func ParamsForSF(sf lora.SpreadingFactor) lora.Params {
	p := lora.DefaultParams()
	p.SF = sf
	p.CR = lora.CR48
	if sf <= lora.SF8 {
		p.CR = lora.CR46
	}
	return p
}

// RateForSNR is ParamsForSF of SFForSNR: the fastest PHY configuration the
// SNR supports (SF12's when ok is false).
func RateForSNR(snrDB float64) (lora.Params, bool) {
	sf, ok := SFForSNR(snrDB)
	return ParamsForSF(sf), ok
}

// SNRRegime is the paper's three-way SNR split (Fig. 8a-c). The paper bins
// by link quality; mapped to per-sample SNR (chirp processing gain of
// 2^SF means LoRa decodes well below 0 dB), "low" spans links that only
// the slow spreading factors can serve, "high" spans links comfortable at
// SF7.
type SNRRegime int

// The three link-quality bins.
const (
	LowSNR    SNRRegime = iota // -15 .. -5 dB per sample
	MediumSNR                  //  -5 .. 10 dB
	HighSNR                    //  10 .. 25 dB
)

// String implements fmt.Stringer.
func (r SNRRegime) String() string {
	switch r {
	case LowSNR:
		return "Low"
	case MediumSNR:
		return "Medium"
	case HighSNR:
		return "High"
	default:
		return fmt.Sprintf("SNRRegime(%d)", int(r))
	}
}

// Sample draws a per-sample SNR (dB) uniformly from the regime's span.
func (r SNRRegime) Sample(rng *rand.Rand) float64 {
	switch r {
	case LowSNR:
		return -15 + rng.Float64()*10
	case MediumSNR:
		return -5 + rng.Float64()*15
	default:
		return 10 + rng.Float64()*15
	}
}

// Mid returns the regime's midpoint SNR, used for deterministic rate
// adaptation.
func (r SNRRegime) Mid() float64 {
	switch r {
	case LowSNR:
		return -10
	case MediumSNR:
		return 2.5
	default:
		return 17.5
	}
}

// Scenario describes one synthetic collision to render at IQ level.
type Scenario struct {
	// Params is the PHY configuration shared by all transmitters.
	Params lora.Params
	// PayloadLen is the payload size in bytes.
	PayloadLen int
	// SNRsDB is each user's per-sample receive SNR.
	SNRsDB []float64
	// Identical makes every user transmit the same payload (team mode).
	Identical bool
	// Seed drives all randomness (payloads, hardware offsets, noise).
	Seed uint64
}

// Synthesize renders the collision and returns the combined baseband
// signal plus the per-user payloads. The noise floor is normalized to
// 0 dBm-equivalent units internally; only SNRs matter.
func (s Scenario) Synthesize() ([]complex128, [][]byte) {
	rng := rand.New(rand.NewPCG(s.Seed, s.Seed^0x517EA7))
	m := lora.MustModem(s.Params)
	pop := radio.DefaultPopulation()
	txs := radio.NewPopulation(len(s.SNRsDB), pop, rng)

	const noiseDBm = -40.0
	var payloads [][]byte
	var shared []byte
	var emissions []channel.Emission
	maxLen := s.Params.FrameSamples(s.PayloadLen) + s.Params.N()
	for i, snr := range s.SNRsDB {
		var payload []byte
		if s.Identical && shared != nil {
			payload = shared
		} else {
			payload = make([]byte, s.PayloadLen)
			for b := range payload {
				payload[b] = byte(rng.IntN(256))
			}
			if s.Identical {
				shared = payload
			}
		}
		payloads = append(payloads, payload)
		sig, whole := txs[i].Transmit(m, payload, pop.CarrierHz)
		amp := math.Pow(10, (noiseDBm+snr)/20)
		emissions = append(emissions, channel.Emission{
			Samples:     sig,
			StartSample: whole,
			Gain:        complex(amp, 0),
		})
		if l := whole + len(sig); l > maxLen {
			maxLen = l
		}
	}
	cfg := channel.Config{NoiseFloorDBm: noiseDBm}
	return channel.Combine(maxLen, emissions, cfg, rng), payloads
}

// trialCtx is the context of every decode inside a Monte-Carlo trial body.
// A sweep polls its own context only between trials — grid's caller after
// each index it takes, EndToEnd's serial loop before each trial — and a
// started trial runs to completion, so a result slot is fully written or
// never touched. A sweep's cancellation therefore stops new trials but must
// not cut a running decode short and leave a failed cell in a sweep that
// then reports success.
var trialCtx = context.Background()

// grid runs fn(cell, trial) for trials[cell] ≥ 0 trials of every cell, all
// on one fan-out, and returns each cell's results in trial order. Every
// Monte-Carlo sweep but EndToEnd runs on it and keeps its rules: fn derives
// its scenario's streams from its coordinates with exec.DeriveSeed, decodes
// under trialCtx and returns its own result, and the caller folds a cell's
// results in the order grid returns them, so a sweep is byte-identical at
// any GOMAXPROCS. Once ctx fires no new trial starts and the context's error
// is returned instead of partial results.
func grid[T any](ctx context.Context, trials []int, fn func(cell, trial int) T) ([][]T, error) {
	type index struct{ cell, trial int }
	var flat []index
	for cell, n := range trials {
		for trial := range n {
			flat = append(flat, index{cell, trial})
		}
	}
	out, err := exec.Map(ctx, len(flat), func(i int) T { return fn(flat[i].cell, flat[i].trial) })
	if err != nil {
		return nil, err
	}
	cells := make([][]T, len(trials))
	for cell, n := range trials {
		cells[cell], out = out[:n:n], out[n:]
	}
	return cells, nil
}

// DecodeWith renders the scenario and runs the supplied Choir decoder —
// typically checked out of a backend.Pool for the trial — on it, reporting
// how many of the transmitted payloads were recovered. The decoder must be
// built for s.Params.
func (s Scenario) DecodeWith(dec *choir.Decoder) (recovered int, total int) {
	sig, payloads := s.Synthesize()
	res, err := dec.Decode(trialCtx, sig, s.PayloadLen)
	return scoreTrial(res, err, payloads), len(payloads)
}

// scoreTrial counts one decoded capture in the sim.* metrics and returns
// how many of the truth payloads res recovered (none when err is set).
func scoreTrial(res *choir.Result, err error, truth [][]byte) int {
	mTrials.Inc()
	mPayloadsExpected.Add(int64(len(truth)))
	if err != nil {
		mTrialDecodeErrs.Inc()
		return 0
	}
	recovered := countRecovered(res.DecodedPayloads(), truth)
	mPayloadsRecovered.Add(int64(recovered))
	return recovered
}

// countRecovered matches decoded payloads against the transmitted ones
// one-to-one by content and returns how many were recovered.
func countRecovered(decoded, want [][]byte) int {
	used := make([]bool, len(decoded))
	recovered := 0
	for _, w := range want {
		for i, got := range decoded {
			if !used[i] && string(got) == string(w) {
				used[i] = true
				recovered++
				break
			}
		}
	}
	return recovered
}
