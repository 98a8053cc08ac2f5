package choir

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/cpu"
)

// scanRange's AVX2 path (scanLanesAVX2 and the lane merge) is exact-order:
// it must return scanRangeGeneric's boundary and gain bits on any input. A
// gain matches when its bits are equal or both are NaN (a NaN's payload is
// the compiler's choice of operand).

// scanEdges are the special values the scan tests mix into prefix sums,
// table rows and totals.
var scanEdges = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072009e-308, -1.5e-310,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e300, -1e300, 1e-300, -1e-300,
	1, -1, 2,
}

// scanValue draws a float64: a normal deviate, an edge value with
// probability edge, or, with ties set, a small integer so that gains tie.
func scanValue(rng *rand.Rand, edge float64, ties bool) float64 {
	switch {
	case rng.Float64() < edge:
		return scanEdges[rng.IntN(len(scanEdges))]
	case ties:
		return float64(rng.IntN(3))
	}
	return rng.NormFloat64()
}

// checkScanRange runs scanRange and scanRangeGeneric on one input and fails
// when their results differ.
func checkScanRange(t testing.TB, prefix []complex128, cusum [][2]float64, tr, ti float64, base, best int, bestGain float64) {
	t.Helper()
	wantI, wantG := scanRangeGeneric(prefix, cusum, tr, ti, base, best, bestGain)
	gotI, gotG := scanRange(prefix, cusum, tr, ti, base, best, bestGain)
	if gotI != wantI || !(math.Float64bits(gotG) == math.Float64bits(wantG) || gotG != gotG && wantG != wantG) {
		t.Fatalf("n=%d base=%d start (%d, %v): (%d, %v), generic (%d, %v)", len(prefix), base, best, bestGain, gotI, gotG, wantI, wantG)
	}
}

// TestScanRangeMatchesGeneric holds scanRange's AVX2 path to
// scanRangeGeneric at every length from 0 to 130, on random sums, on sums
// and rows with ±0, subnormals, ±Inf, NaN and 1e±300 mixed in, on small
// integers whose gains tie, and from a starting maximum of −Inf, a finite
// gain, +Inf and NaN.
func TestScanRangeMatchesGeneric(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("no AVX2: scanRangeGeneric is the only path")
	}
	rng := rand.New(rand.NewPCG(59, 4))
	starts := []float64{math.Inf(-1), 0, 0.5, 3, math.Inf(1), math.NaN()}
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 24; trial++ {
			edge := []float64{0, 0, 0.05, 0.3}[trial%4]
			ties := trial%3 == 1
			prefix, cusum := make([]complex128, n), make([][2]float64, n)
			for i := range prefix {
				prefix[i] = complex(scanValue(rng, edge, ties), scanValue(rng, edge, ties))
				cusum[i] = [2]float64{scanValue(rng, edge, ties), math.Abs(scanValue(rng, edge, ties))}
			}
			tr, ti := scanValue(rng, edge, ties), scanValue(rng, edge, ties)
			base := rng.IntN(5000)
			checkScanRange(t, prefix, cusum, tr, ti, base, max(0, base-1-rng.IntN(8)), starts[trial%len(starts)])
		}
	}
}

// FuzzScanRange holds scanRange's AVX2 path to scanRangeGeneric on
// arbitrary bits: raw gives each boundary's prefix sum and table row, 32
// bytes apiece.
func FuzzScanRange(f *testing.F) {
	f.Add(make([]byte, 160), 1.0, 0.0, math.Inf(-1))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"), -2.5, 1e300, 0.25)
	f.Fuzz(func(t *testing.T, raw []byte, tr, ti, bestGain float64) {
		if !cpu.AVX2 {
			t.Skip("no AVX2")
		}
		n := min(len(raw)/32, 4097)
		word := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])) }
		prefix, cusum := make([]complex128, n), make([][2]float64, n)
		for i := range prefix {
			prefix[i] = complex(word(4*i), word(4*i+1))
			cusum[i] = [2]float64{word(4*i + 2), word(4*i + 3)}
		}
		checkScanRange(t, prefix, cusum, tr, ti, 7, 6, bestGain)
	})
}
