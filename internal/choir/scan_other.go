//go:build !amd64

package choir

// Off amd64 cpu.AVX2 is false and the generic kernels run; these keep the
// dispatchers compiling.

func scanLanesAVX2(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64, lanes *scanLanes) {
	panic("choir: no AVX2 kernels off amd64")
}

func blockBoundsAVX2(mask []uint64, prefix []complex128, cusum [][2]float64, wmax, blk []float64, tr, ti, tail, lower, dev0 float64) {
	panic("choir: no AVX2 kernels off amd64")
}

func blockSumsAVX2(dst []float64, x []complex128) {
	panic("choir: no AVX2 kernels off amd64")
}

func magnitudesAVX2(out []float64, spec []complex128) int {
	panic("choir: no AVX2 kernels off amd64")
}

func subtractToneAVX2(x, tone []complex128, h complex128) {
	panic("choir: no AVX2 kernels off amd64")
}
