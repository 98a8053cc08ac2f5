package main

import (
	"context"
	"math/rand/v2"
	"testing"

	"choir/internal/backend"
	ichoir "choir/internal/choir"
	"choir/internal/dsp"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/sim/engine"
)

// benchmark is one named, seeded measurement in the suite.
type benchmark struct {
	Name      string
	PinNs     bool // gate on ns/op regression
	PinAllocs bool // gate on any allocs/op increase (zero-alloc kernels)
	Fn        func(b *testing.B)
}

func (bm benchmark) run() Result {
	r := testing.Benchmark(bm.Fn)
	return Result{
		Name:        bm.Name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		PinNs:       bm.PinNs,
		PinAllocs:   bm.PinAllocs,
	}
}

// suite returns the pinned benchmark set: kernels and single decodes, fixed
// seeds and fixed shapes so runs are comparable across commits. What a
// gateway or a city run costs end to end is benchmark/'s job (gw_* and
// city_* workloads), not this suite's.
func suite() []benchmark {
	return []benchmark{
		{Name: "BenchmarkFFTFullPadded", PinNs: true, PinAllocs: true, Fn: benchFFTFullPadded},
		{Name: "BenchmarkFFTPruned", PinNs: true, PinAllocs: true, Fn: benchFFTPruned},
		{Name: "BenchmarkSpectrumInto", PinNs: true, PinAllocs: true, Fn: benchSpectrumInto},
		{Name: "BenchmarkNoiseFloor", PinNs: true, PinAllocs: true, Fn: benchNoiseFloor},
		{Name: "BenchmarkToneKernel", PinNs: true, PinAllocs: true, Fn: benchToneKernel},
		{Name: "BenchmarkSegmentFit", PinNs: true, PinAllocs: true, Fn: benchSegmentFit},
		{Name: "BenchmarkFitChannels", PinNs: true, PinAllocs: true, Fn: benchFitChannels},
		{Name: "BenchmarkFindPeaks", PinNs: true, PinAllocs: true, Fn: benchFindPeaks},
		{Name: "BenchmarkDecodeSteadyState", PinNs: true, PinAllocs: true, Fn: benchDecodeSteadyState},
		{Name: "BenchmarkBackendDispatch", PinNs: true, PinAllocs: true, Fn: benchBackendDispatch},
		{Name: "BenchmarkDecodeTwoUserCollision", PinNs: true, Fn: benchDecodeTwoUser},
		{Name: "BenchmarkDecodeEightUserCollision", PinNs: true, Fn: benchDecodeEightUser},
		{Name: "BenchmarkEventQueue", PinNs: true, PinAllocs: true, Fn: benchEventQueue},
	}
}

// retired lists benchmarks deleted on purpose, each with the reason.
// -compare fails when a benchmark the base report pins is missing from head;
// it reports the names here as retired instead. A name is never both here
// and in suite() (TestCommittedBaselineCoversSuite).
var retired = map[string]string{
	"BenchmarkGatewaySustained":   "the gateway's batched first rung is deleted",
	"BenchmarkGatewaySerial":      "its p99 was the depth of a pre-filled queue; benchmark/'s gw_light_* and gw_heavy_closed measure the path",
	"BenchmarkCityScale":          "benchmark/'s city_sparse measures the engine",
	"BenchmarkCityScaleInterfere": "benchmark/'s city_dense measures the engine with a foreign network and the capture model",
	"BenchmarkHeadline":           "the root BenchmarkHeadline prints the paper's rows; nothing gated on its wall time",
}

// benchSignal synthesizes the fixed near-far collision shared by the decode
// benchmarks.
func benchSignal(b *testing.B, snrs []float64, seed uint64) ([]complex128, lora.Params) {
	b.Helper()
	sc := sim.Scenario{Params: lora.DefaultParams(), PayloadLen: 8, SNRsDB: snrs, Seed: seed}
	sig, _ := sc.Synthesize()
	return sig, sc.Params
}

// dechirpedWindow builds a deterministic SF9-shaped dechirped window plus
// noise for the FFT kernel benchmarks: pruned vs full transforms must be
// compared on identical inputs.
func dechirpedWindow(n int) []complex128 {
	rng := rand.New(rand.NewPCG(42, 0xBE7C4))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func benchFFTFullPadded(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	f := dsp.NewFFT(padN)
	padded := make([]complex128, padN)
	dst := make([]complex128, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range padded {
			padded[j] = 0
		}
		copy(padded, x)
		f.Transform(dst, padded)
	}
}

func benchFFTPruned(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	f := dsp.NewFFT(padN)
	dst := make([]complex128, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TransformPruned(dst, x)
	}
}

func benchSpectrumInto(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	f := dsp.NewFFT(padN)
	dst := make([]float64, padN)
	spec := make([]complex128, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SpectrumInto(dst, spec, x)
	}
}

func benchNoiseFloor(b *testing.B) {
	const padN = 8192
	rng := rand.New(rand.NewPCG(7, 0xF100D))
	mags := make([]float64, padN)
	for i := range mags {
		mags[i] = rng.Float64()
	}
	scratch := make([]float64, padN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.NoiseFloorScratch(mags, scratch)
	}
}

// benchToneKernel is one SF10-window tone from the doubling kernel: every
// per-sample tone of a decode is one of these.
func benchToneKernel(b *testing.B) {
	dst := make([]complex128, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.Tone(dst, len(dst), 0.1337, 0)
	}
}

// benchSegmentFit is the decoder's hottest routine on its own: one
// two-segment fit of an SF8 window against a ready tone.
func benchSegmentFit(b *testing.B) {
	p := lora.DefaultParams()
	p.SF = lora.SF8
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	x := dechirpedWindow(p.N())
	tone := dsp.Tone(nil, p.N(), 37.3/float64(p.N()), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.SegmentFit(x, tone)
	}
}

// benchFitChannels is the joint channel fit of Eqn. 2 at the benchmark's
// highest collision order: six tones at least 0.9 bin apart against one SF8
// window — six tones and correlations plus a 6×6 closed-form system.
func benchFitChannels(b *testing.B) {
	p := lora.DefaultParams()
	p.SF = lora.SF8
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	x := dechirpedWindow(p.N())
	offsets := []float64{12.2, 13.15, 37.3, 90.75, 91.9, 201.4}
	dec.FitChannels(x, offsets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.FitChannels(x, offsets)
	}
}

// benchFindPeaks is one peak search over an SF9 window's 16×-padded
// magnitude spectrum (8192 bins) holding six tones in noise, with the
// decoder's separation and a 5× noise-floor threshold: almost every bin
// fails the threshold, which is the case the search is written for.
func benchFindPeaks(b *testing.B) {
	const n, padN = 512, 8192
	x := dechirpedWindow(n)
	for _, f := range []float64{12.2, 13.15, 37.3, 190.75, 191.9, 401.4} {
		dsp.Add(x, dsp.Scale(dsp.Tone(nil, n, f/n, 0), 8))
	}
	mags := dsp.NewFFT(padN).SpectrumInto(nil, nil, x)
	cfg := dsp.PeakConfig{Pad: padN / n, MinSeparation: 0.9, Threshold: 5 * dsp.NoiseFloor(mags), Max: 16}
	var scratch dsp.PeakScratch
	if got := len(dsp.FindPeaksScratch(&scratch, mags, cfg)); got < 6 {
		b.Fatalf("found %d peaks of six tones", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dsp.FindPeaksScratch(&scratch, mags, cfg)
	}
}

func benchDecodeSteadyState(b *testing.B) {
	sig, p := benchSignal(b, []float64{20, 15}, 9)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	res := &ichoir.Result{}
	if _, err := dec.DecodeInto(res, sig, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecodeInto(res, sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBackendDispatch is benchDecodeSteadyState driven through the
// collision-resolution Backend interface instead of the concrete decoder:
// same signal, plus the registry dispatch, interface call, and
// context polling. Pinned at zero allocs/op — the pluggable-backend layer
// must not put the steady-state decode path back on the heap.
func benchBackendDispatch(b *testing.B) {
	sig, p := benchSignal(b, []float64{20, 15}, 9)
	be := backend.MustNew("choir", p)
	res := &ichoir.Result{}
	ctx := context.Background()
	if err := be.DecodeCtxInto(ctx, res, sig, 8); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.DecodeCtxInto(ctx, res, sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeTwoUser(b *testing.B) {
	sig, p := benchSignal(b, []float64{20, 15}, 9)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(context.Background(), sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecodeEightUser(b *testing.B) {
	snrs := make([]float64, 8)
	for i := range snrs {
		snrs[i] = 15 + float64(i)
	}
	sig, p := benchSignal(b, snrs, 10)
	dec := ichoir.MustNew(ichoir.DefaultConfig(p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(context.Background(), sig, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEventQueue is the city engine's steady state on its event queue
// alone, at the million-node size where the queue's arrays leave the cache:
// pop the earliest wake, reschedule that node up to 65 536 slots on — the
// shape benchmark/'s engine.queue_ns_per_op probe times.
func benchEventQueue(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewPCG(2026, 0xE0))
	q := engine.NewEventQueue(n)
	for i := int32(0); i < n; i++ {
		q.Set(i, rng.Int64N(1<<20))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, slot := q.PopMin()
		q.Set(id, slot+1+rng.Int64N(1<<16))
	}
}
