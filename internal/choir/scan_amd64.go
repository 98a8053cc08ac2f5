package choir

// The AVX2 forms of scanRange's boundary loop, segmentScan's block bound,
// blockSums, magnitudes and subtractTone (scan_amd64.s). Each gives its
// generic kernel's bits; the dispatchers call them only when cpu.AVX2 is
// set.

// scanLanesAVX2 runs scanRange's boundary loop over the first len(prefix)/4
// steps of four boundaries, base onward, in four lanes: each lane starts at
// best, bestGain and keeps the first strict maximum of the boundaries it
// sees, which it leaves in lanes.
//
//go:noescape
func scanLanesAVX2(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64, lanes *scanLanes)

// blockBoundsAVX2 is blockBoundsGeneric over blocks 0 … len(wmax)−1, a
// multiple of four, with dev0 = |D_0|₁; mask must start zeroed.
//
//go:noescape
func blockBoundsAVX2(mask []uint64, prefix []complex128, cusum [][2]float64, wmax, blk []float64, tr, ti, tail, lower, dev0 float64)

// blockSumsAVX2 is blockSumsGeneric over len(dst) blocks, a multiple of
// four.
//
//go:noescape
func blockSumsAVX2(dst []float64, x []complex128)

// magnitudesAVX2 writes √(re² + im²) of the first len(out)&^3 values of
// spec to out and returns nonzero when any of those sums is outside
// [2⁻¹⁰²⁰, MaxFloat64] or NaN.
//
//go:noescape
func magnitudesAVX2(out []float64, spec []complex128) int

// subtractToneAVX2 is subtractToneGeneric.
//
//go:noescape
func subtractToneAVX2(x, tone []complex128, h complex128)
