package dsp

// The AVX2 forms of scaleLevel, toneLevel, prefixLevel, radix22Pass and
// radix2Pass
// (kernels_amd64.s). Each gives its generic kernel's bits; the dispatchers
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
