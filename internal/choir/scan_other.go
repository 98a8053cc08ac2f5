//go:build !amd64

package choir

// Off amd64 cpu.AVX2 is false and scanRangeGeneric runs; this keeps
// scanRange compiling.
func scanLanesAVX2(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64, lanes *scanLanes) {
	panic("choir: no AVX2 kernels off amd64")
}
