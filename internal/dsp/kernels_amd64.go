package dsp

// The AVX2 forms of scaleLevel, toneLevel, prefixLevel, radix22Pass,
// radix2Pass, bracketMedian's pass, TransformPruned's fill and
// FindPeaksScratch's threshold test (kernels_amd64.s). Each gives its generic kernel's bits; the dispatchers
// call them only when cpu.AVX2 is set.

//go:noescape
func scaleLevelAVX2(out, src []complex128, w complex128)

//go:noescape
func toneLevelAVX2(out, src, x, sums []complex128, w complex128, sr, si float64) (float64, float64)

//go:noescape
func prefixLevelAVX2(src, x, sums []complex128, w complex128, sr, si float64)

// radix22PassAVX2 is radix22Pass over blocks of 4h, h = size/2, with stage
// 2·size's twiddle stride step; h must be even.
//
//go:noescape
func radix22PassAVX2(dst, tw, twq []complex128, h, step int)

// radix2PassAVX2 is radix2Pass over blocks of 2h, h = size/2, with twiddle
// stride step; h must be even.
//
//go:noescape
func radix2PassAVX2(dst, tw []complex128, h, step int)

// bracketPassAVX2 is bracketMedian's pass over the first len(xs)&^3 values
// of xs: it gathers those in [lo, hi] or NaN to buf in order and returns how
// many it gathered and how many are below lo. buf must be at least as long
// as xs.
//
//go:noescape
func bracketPassAVX2(xs, buf []float64, lo, hi float64) (in, below int)

// prunedFillAVX2 is TransformPruned's broadcast fill, for an even pad.
//
//go:noescape
func prunedFillAVX2(dst, src []complex128, rev []int, pad int)

// firstNotBelowAVX2 is firstNotBelow over the first len(xs)&^3 values: it
// returns len(xs)&^3 when none of them is at or above thr or NaN.
//
//go:noescape
func firstNotBelowAVX2(xs []float64, thr float64) int
