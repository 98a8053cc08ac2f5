package main

import (
	"time"
)

// The box this benchmark runs on is shared: over minutes it swings between
// full speed and little more than half of it, for every kind of code at once
// (measured while this was written: the same light decode at 18 and at 30 ms,
// the same engine run at 660 k and 360 k events/s, an hour apart; two sets of
// ten runs of identical code a quarter of an hour apart disagreed by up to
// 30 %). No amount of repetition inside a 15 s run averages that out, so each
// run also measures the box: short bursts of a fixed kernel of the
// benchmark's own, before and after every timed phase. Time-based end-to-end
// metrics are reported at the reference speed — divided or multiplied by
// boxSpeed — and the raw values are printed beside them.
//
// The kernel is a dependent random walk over 1 MB (L2-resident): of the
// kernels tried (walks over 1, 8, 32 and 128 MB, with and without floating
// point, a complex multiply-accumulate loop) it tracked both the decoder and
// the engine best — their time divided by its time varied by 5–7 % (distance
// between quartiles over 15 s windows) where the raw times varied by 14–15 %.
// It must never change: it is the unit every time in BENCHMARK.json is in.

const (
	refSteps = 20_000_000
	// refNSPerStep is the kernel's cost per step on the sizing box at full
	// speed (the fastest quarter of 945 bursts): boxSpeed is 1 there.
	refNSPerStep = 1.53
)

var refMem = make([]uint32, 256<<10)

// refBurst runs the kernel for steps steps and returns how long it took.
func refBurst(steps int) time.Duration {
	mask := uint32(len(refMem) - 1)
	idx, sum := uint32(12345), uint32(0)
	start := time.Now()
	for i := 0; i < steps; i++ {
		idx = idx*1664525 + 1013904223
		j := (idx >> 5) & mask
		sum += refMem[j]
		refMem[j] = sum
	}
	d := time.Since(start)
	sink += float64(sum)
	return d
}

// boxSpeed measures the box now: reference time ÷ the median of three
// bursts, so 1 is the sizing box at full speed and 0.5 a box half as fast.
// scale shortens the bursts for the tests.
func boxSpeed(scale float64) float64 {
	steps := max(100_000, int(refSteps*scale))
	var ns []float64
	for i := 0; i < 3; i++ {
		ns = append(ns, float64(refBurst(steps).Nanoseconds()))
	}
	return refNSPerStep * float64(steps) / median(ns)
}
