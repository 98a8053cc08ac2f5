package choir

// scanLanesAVX2 runs scanRange's boundary loop over the first len(prefix)/4
// steps of four boundaries, base onward, in four lanes: each lane starts at
// best, bestGain and keeps the first strict maximum of the boundaries it
// sees, which it leaves in lanes (scan_amd64.s).
//
//go:noescape
func scanLanesAVX2(prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64, lanes *scanLanes)
