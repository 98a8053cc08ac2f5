// Package choir is the public API of this repository: a from-scratch Go
// implementation of Choir (Eletreby, Zhang, Kumar, Yağan — "Empowering
// Low-Power Wide Area Networks in Urban Settings", SIGCOMM 2017), a system
// that decodes collisions of LoRa chirp-spread-spectrum transmissions at a
// single-antenna base station by exploiting the natural hardware offsets of
// low-cost LP-WAN clients, and that extends range by pooling teams of
// co-located sensors transmitting correlated data.
//
// The package re-exports the part of the internal packages that the
// commands under cmd/, the programs under examples/ and the root tests use:
//
//   - the collision decoder (NewDecoder, Decode, DecodeTeam), the backend
//     registry behind it, and their configuration;
//   - the LoRa PHY substrate (PHYParams, NewModem) used to build
//     transmitters and baseline receivers;
//   - the client hardware and channel models used to simulate deployments;
//   - the experiment harness that regenerates every figure of the paper's
//     evaluation (Fig7Offsets .. Fig12MUMIMO, ComputeHeadline) and the
//     city-scale and interference sweeps.
//
// Every blocking entry point takes a context.Context first; a context that
// cannot fire never changes a result (DESIGN.md §7).
//
// # Quick start
//
//	p := choir.DefaultPHY()
//	dec, err := choir.NewDecoder(choir.DefaultDecoderConfig(p))
//	...
//	res, err := dec.Decode(ctx, iqSamples, payloadLen)
//	for _, u := range res.Users {
//	    fmt.Printf("user offset=%.2f bins payload=%x\n", u.Offset, u.Payload)
//	}
//
// See examples/ for complete runnable programs and DESIGN.md for the system
// inventory and the per-experiment index.
package choir

import (
	"choir/internal/backend"
	"choir/internal/channel"
	ichoir "choir/internal/choir"
	"choir/internal/exec"
	"choir/internal/fault"
	"choir/internal/lora"
	"choir/internal/mac"
	"choir/internal/obs"
	"choir/internal/radio"
	"choir/internal/sim"
	"choir/internal/sim/engine"
	"choir/internal/sim/interfere"
)

// PHY layer (package internal/lora).

// PHYParams is one LoRa PHY configuration (spreading factor, bandwidth,
// code rate, preamble).
type PHYParams = lora.Params

var (
	// DefaultPHY returns the evaluation's PHY configuration (SF8, 125 kHz,
	// 4/8 coding, 8-symbol preamble).
	DefaultPHY = lora.DefaultParams
	// NewModem builds a standard (non-Choir) LoRa modem for a PHY
	// configuration.
	NewModem = lora.NewModem
)

// SF7 is the fastest LoRa spreading factor.
const SF7 = lora.SF7

// Collision decoding (package internal/choir — the paper's contribution).
// The Err* sentinels classify outcomes with errors.Is.
var (
	// NewDecoder validates the configuration and builds a decoder.
	NewDecoder = ichoir.New
	// DefaultDecoderConfig returns the evaluation's decoder settings.
	DefaultDecoderConfig = ichoir.DefaultConfig
	// ErrDecodeCanceled reports a decode abandoned at a stage boundary
	// because its context was canceled.
	ErrDecodeCanceled = ichoir.ErrCanceled
	// ErrDecodeDeadline reports a decode abandoned because its context's
	// deadline expired mid-decode.
	ErrDecodeDeadline = ichoir.ErrDeadline
)

// Collision-resolution backends (package internal/backend): every decoding
// strategy behind one interface, selected by registered name. The "choir"
// backend is the reference decoder; alternatives trade fidelity for reach
// (see DESIGN.md §13).

// BackendPool lends out per-goroutine instances of one backend. An instance
// decodes from its samples alone, so pooled reuse is deterministic.
type BackendPool = backend.Pool

var (
	// NewBackendPool validates the (name, PHY) pair and builds a pool.
	NewBackendPool = backend.NewPool
	// BackendNames returns every registered backend name, sorted.
	BackendNames = backend.Names
	// BackendRegistered reports whether a backend name is registered.
	BackendRegistered = backend.Registered
	// BackendDecode runs one backend over a capture with a fresh result.
	BackendDecode = backend.Decode
	// BackendDecoder exposes the reference decoder behind a Choir-pipeline
	// backend (team decoding, config introspection); nil for the others.
	BackendDecoder = backend.Decoder
)

// Hardware and channel models (packages internal/radio, internal/channel).
type (
	// Emission is one transmitter's contribution to the shared medium.
	Emission = channel.Emission
	// ChannelConfig is the receiver front-end model (noise floor, ADC).
	ChannelConfig = channel.Config
)

var (
	// NewPopulation draws a population of client radios.
	NewPopulation = radio.NewPopulation
	// DefaultPopulation mirrors the paper's SX1276 board statistics.
	DefaultPopulation = radio.DefaultPopulation
	// Combine superimposes emissions plus noise and quantization.
	Combine = channel.Combine
)

// MAC schemes (package internal/mac), run by the city engine below.
const (
	SchemeOracle = mac.SchemeOracle
	SchemeChoir  = mac.SchemeChoir
)

// Parallel trial execution (package internal/exec): the engine behind every
// experiment's Workers knob.
var (
	// NewWorkerPool builds a pool of the given width (<= 0 = all CPUs,
	// 1 = inline serial execution).
	NewWorkerPool = exec.NewPool
	// DeriveSeed deterministically mixes a base seed with trial
	// coordinates, giving every parallel trial an independent stream.
	DeriveSeed = exec.DeriveSeed
)

// City-scale engine (package internal/sim/engine): an event-driven MAC/sim
// driver that skips idle node-slots entirely and resolves each node's
// channel lazily at first wake, on one goroutine per run — while staying
// bit-identical to a serial slot-walk reference. See DESIGN.md §15.
type (
	// CityConfig parameterizes one city run (scheme, nodes, gateways,
	// traffic, receiver model, driver).
	CityConfig = engine.Config
	// CityModelReceiver is a receiver model backed by a success-probability
	// table with an optional per-slot capacity cap.
	CityModelReceiver = mac.ModelReceiver
	// CityForeignConfig describes one co-channel foreign network: node
	// population, per-node offered load, and its ADR policy.
	CityForeignConfig = engine.ForeignConfig
)

var (
	// RunCity executes one city under ctx and returns its metrics (nil
	// metrics and the context's error if canceled mid-drain).
	RunCity = engine.Run
	// CityDensitySweep reruns the city across node counts; each point's
	// seed derives from its index, so points are independent.
	CityDensitySweep = engine.DensitySweep
	// FprintCitySweep writes a sweep as an aligned text table.
	FprintCitySweep = engine.FprintSweep
	// ParseCityDriver maps "event"/"slot" to a city driver.
	ParseCityDriver = engine.ParseDriver
	// AnalyticChoirTable builds the calibrated Choir success table used
	// as the default city receiver model.
	AnalyticChoirTable = sim.AnalyticChoirTable
)

const (
	// CityDriverEvent is the production event engine.
	CityDriverEvent = engine.DriverEvent
	// CityADRFastestSNR is the engine's original rate adaptation: the
	// fastest rate the measured SNR supports.
	CityADRFastestSNR = engine.ADRFastestSNR
)

// Multi-network interference (package internal/sim/interfere): a
// capture-effect receiver with per-SF imperfect orthogonality and the paired
// goodput-vs-density sweep comparing Choir decoding against ADR alone. See
// DESIGN.md §17.

// InterfereSweepConfig parameterizes the interference comparison sweep (base
// city, densities, capture margin).
type InterfereSweepConfig = interfere.SweepConfig

var (
	// NewCaptureModel wraps a receiver with the capture effect at a margin
	// (dB) under the urban shadowing spread and default SIR matrix.
	NewCaptureModel = interfere.New
	// RunInterfereSweep runs the paired Choir-vs-ADR density sweep.
	RunInterfereSweep = interfere.RunSweep
	// FprintInterfereSweep writes the sweep as an aligned text table.
	FprintInterfereSweep = interfere.Fprint
)

// Fault injection (package internal/fault): deterministic, seeded IQ
// corruption at the channel boundary.
type (
	// FaultInjector corrupts IQ sample streams with one fault class at a
	// fixed intensity; all randomness comes from the seed passed to Apply.
	FaultInjector = fault.Injector
	// FaultClass identifies one fault family (clip, drop, interferer,
	// drift, truncate).
	FaultClass = fault.Class
)

var (
	// NewFault builds an injector for a class at an intensity in [0, 1];
	// intensity 0 is an exact no-op.
	NewFault = fault.New
	// ParseFaultClass parses a class name as printed by FaultClass.String.
	ParseFaultClass = fault.ParseClass
)

// Experiments (packages internal/sim and, for the MAC cell figures,
// internal/sim/engine): every figure of Sec. 9.
type (
	// Figure is a reproduced paper figure (series over an x axis).
	Figure = sim.Figure
	// Scenario renders synthetic collisions at IQ level.
	Scenario = sim.Scenario
	// ExperimentConfig parameterizes the density experiments.
	ExperimentConfig = engine.Fig8Config
	// ExperimentMetric selects throughput, latency, or transmission count.
	ExperimentMetric = engine.Metric
	// HeadlineResult aggregates the paper's headline gains.
	HeadlineResult = engine.Headline
	// E2EReport summarizes an end-to-end deployment run.
	E2EReport = sim.E2EReport
)

// Experiment entry points, one per paper figure. Those that run Monte-Carlo
// trials or MAC simulations take a context: results are identical when it
// never fires, and once it does they return its error and no partial figure.
var (
	Fig7Offsets     = sim.Fig7Offsets
	Fig7Stability   = sim.Fig7Stability
	Fig8SNR         = engine.Fig8SNR
	Fig8Users       = engine.Fig8Users
	Fig9Throughput  = sim.Fig9Throughput
	Fig9Range       = sim.Fig9Range
	Fig10Resolution = sim.Fig10Resolution
	Fig11Grouping   = sim.Fig11Grouping
	Fig11Throughput = engine.Fig11Throughput
	Fig12MUMIMO     = engine.Fig12MUMIMO
	ComputeHeadline = engine.ComputeHeadline
	DefaultFig8     = engine.DefaultFig8
	DefaultFig12    = engine.DefaultFig12
	// EndToEnd runs the full deployment pipeline (geometry, scheduling,
	// IQ-level collision and team decoding) in one experiment.
	EndToEnd   = sim.EndToEnd
	DefaultE2E = sim.DefaultE2E
	// FaultSweep measures decode success versus fault intensity per class,
	// deterministically for any worker count.
	FaultSweep        = sim.FaultSweep
	DefaultFaultSweep = sim.DefaultFaultSweep
	// CompareBackends decodes one capture grid — fixtures, synthesized
	// collisions, and a fault sweep — with every configured backend and
	// reports per-backend goodput, error taxonomy, and latency.
	CompareBackends     = sim.Compare
	DefaultCompare      = sim.DefaultCompare
	LoadCompareFixtures = sim.LoadCompareFixtures
)

// Metrics selectors for Fig8* experiments.
const (
	MetricThroughput = engine.Throughput
	MetricLatency    = engine.Latency
	MetricTxCount    = engine.TxCount
)

// Observability (package internal/obs): process-wide counters and latency
// histograms. Recording is off by default and allocation-free when disabled;
// enabling it never changes decode results or seed derivation (DESIGN.md
// §10).
var (
	// EnableMetrics turns on metric recording process-wide.
	EnableMetrics = obs.Enable
	// DisableMetrics turns recording back off (already-recorded values
	// remain readable).
	DisableMetrics = obs.Disable
)
