//go:build !amd64

package dsp

// Off amd64 cpu.AVX2 is false and the generic kernels run; these keep the
// dispatchers compiling.

func scaleLevelAVX2(out, src []complex128, w complex128) {
	panic("dsp: no AVX2 kernels off amd64")
}

func toneLevelAVX2(out, src, x, sums []complex128, w complex128, sr, si float64) (float64, float64) {
	panic("dsp: no AVX2 kernels off amd64")
}

func prefixLevelAVX2(src, x, sums []complex128, w complex128, sr, si float64) {
	panic("dsp: no AVX2 kernels off amd64")
}

func radix22PassAVX2(dst, tw, twq []complex128, h, step int) {
	panic("dsp: no AVX2 kernels off amd64")
}

func radix2PassAVX2(dst, tw []complex128, h, step int) {
	panic("dsp: no AVX2 kernels off amd64")
}

func bracketPassAVX2(xs, buf []float64, lo, hi float64) (in, below int) {
	panic("dsp: no AVX2 kernels off amd64")
}

func prunedFillAVX2(dst, src []complex128, rev []int, pad int) {
	panic("dsp: no AVX2 kernels off amd64")
}

func firstNotBelowAVX2(xs []float64, thr float64) int {
	panic("dsp: no AVX2 kernels off amd64")
}
