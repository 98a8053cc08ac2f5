package main

import (
	"bytes"
	"math/rand/v2"
	"sort"
	"time"

	"choir/internal/exec"
	"choir/internal/lora"
	"choir/internal/sim"
	"choir/internal/trace"
)

// Seed dimensions: every seeded decision of the generator hashes (--seed,
// one of these, coordinates), so pools, orders and schedules never alias.
const (
	dimScenario = iota + 1
	dimJitter
	dimOrder
	dimSchedule
	dimGateway
	dimCity
	dimProbe
)

// frame is one pre-synthesised collision with its ground truth.
type frame struct {
	cell     int
	header   trace.Header
	samples  []complex128
	payloads [][]byte
	wire     []byte // trace.WriteFramed encoding; TCP workloads only
}

// framePool is cells × variants frames; frame (c, v) sits at c*variants+v.
// A pass over the pool is one frame of every cell, so any whole number of
// passes offers the same mix of work whatever the seed.
type framePool struct {
	heavy           bool
	cells, variants int
	frames          []frame
	usable          [][]int // per cell, the frames the timed order may use
}

// all marks every frame usable.
func (fp *framePool) all() [][]int {
	u := make([][]int, fp.cells)
	for fi := range fp.frames {
		u[fi/fp.variants] = append(u[fi/fp.variants], fi)
	}
	return u
}

// synthFrame renders one collision. jitterDB spreads each user's SNR
// uniformly by ±jitterDB around its nominal value.
func synthFrame(seed uint64, cell, variant int, p lora.Params, payloadLen int, snrs []float64, jitterDB float64) frame {
	s := append([]float64(nil), snrs...)
	if jitterDB > 0 {
		rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, dimJitter, uint64(cell), uint64(variant)), 0x534E52))
		for i := range s {
			s[i] += (2*rng.Float64() - 1) * jitterDB
		}
	}
	sc := sim.Scenario{
		Params: p, PayloadLen: payloadLen, SNRsDB: s,
		Seed: exec.DeriveSeed(seed, dimScenario, uint64(cell), uint64(variant)),
	}
	sig, payloads := sc.Synthesize()
	return frame{
		cell:     cell,
		header:   trace.Header{Params: p, PayloadLen: payloadLen},
		samples:  sig,
		payloads: payloads,
	}
}

func sfParams(sf int) lora.Params {
	p := lora.DefaultParams()
	p.SF = lora.SpreadingFactor(sf)
	return p
}

const (
	lightPayloadLen = 4
	heavyPayloadLen = 8
)

// lightPool is the smallest frame the PHY allows, in `variants` seeded
// renderings: SF7, two users at 15 and 12 dB ±2 dB, 4-byte payloads.
func lightPool(seed uint64, variants int) *framePool {
	fp := &framePool{cells: 1, variants: variants}
	for v := 0; v < variants; v++ {
		fp.frames = append(fp.frames, synthFrame(seed, 0, v, sfParams(7), lightPayloadLen, []float64{15, 12}, 2))
	}
	return fp
}

// heavyPool is heavyCells × variants: 8-byte payloads, user k at 14+2.5k dB.
func heavyPool(seed uint64, variants int) *framePool {
	fp := &framePool{heavy: true, cells: len(heavyCells), variants: variants}
	for c, hc := range heavyCells {
		snrs := make([]float64, hc.users)
		for k := range snrs {
			snrs[k] = 14 + 2.5*float64(k)
		}
		for v := 0; v < variants; v++ {
			fp.frames = append(fp.frames, synthFrame(seed, c, v, sfParams(hc.sf), heavyPayloadLen, snrs, 0))
		}
	}
	return fp
}

// encode fills every frame's wire form and returns the mean time and size
// per frame.
func (fp *framePool) encode(rec *recorder) (perFrame time.Duration, bytesPerFrame float64, err error) {
	var total time.Duration
	var size int
	for i := range fp.frames {
		f := &fp.frames[i]
		var buf bytes.Buffer
		start := time.Now()
		if err = trace.WriteFramed(&buf, f.header, f.samples); err != nil {
			return 0, 0, err
		}
		end := time.Now()
		rec.add("trace.encode", "trace", int64(i), -1, start, end)
		total += end.Sub(start)
		f.wire = buf.Bytes()
		size += len(f.wire)
	}
	n := len(fp.frames)
	return total / time.Duration(n), float64(size) / float64(n), nil
}

// frameOrder draws passes over a pool: each pass visits every cell once in a
// seeded order, and each cell walks its usable frames in seeded
// permutations, so equal seeds offer identical work and different seeds do
// not.
type frameOrder struct {
	rng    *rand.Rand
	usable [][]int
	next   [][]int // per cell: the unused rest of its current permutation
}

func newFrameOrder(seed uint64, usable [][]int) *frameOrder {
	return &frameOrder{
		rng:    rand.New(rand.NewPCG(exec.DeriveSeed(seed, dimOrder), 0x4F5244)),
		usable: usable,
		next:   make([][]int, len(usable)),
	}
}

// pass returns the next pass: one frame of every cell.
func (o *frameOrder) pass() []int {
	out := make([]int, 0, len(o.usable))
	for _, c := range o.rng.Perm(len(o.usable)) {
		if len(o.next[c]) == 0 {
			o.next[c] = o.rng.Perm(len(o.usable[c]))
		}
		out = append(out, o.usable[c][o.next[c][0]])
		o.next[c] = o.next[c][1:]
	}
	return out
}

// take returns the first n frames of the passes to come.
func (o *frameOrder) take(n int) []int {
	var out []int
	for len(out) < n {
		out = append(out, o.pass()...)
	}
	return out[:n]
}

// arrivalSchedule places exactly n arrivals of a Poisson process over
// [0, span): given their number, Poisson arrival times are independent
// uniforms, so this is the process at rate n/span with its count (and so
// the run's length and offered work) fixed across seeds.
func arrivalSchedule(seed uint64, n int, span time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(exec.DeriveSeed(seed, dimSchedule), 0x504F49))
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(span))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}
