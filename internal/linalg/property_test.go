package linalg_test

// Property tests for the dense solvers over random well-conditioned
// systems: Solve must leave a residual at working precision on diagonally
// dominant matrices (whose condition number is bounded away from
// singularity), and LeastSquares must satisfy the normal equations — the
// optimality condition Aᴴ(Ax−b) = 0 — on random tall systems.

import (
	"math"
	"math/rand/v2"
	"testing"

	"choir/internal/linalg"
)

func randComplex(rng *rand.Rand) complex128 {
	return complex(rng.NormFloat64(), rng.NormFloat64())
}

func vecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// diagDominant returns a random n×n matrix whose diagonal dominates its
// rows by a factor ~2, keeping every trial comfortably non-singular.
func diagDominant(n int, rng *rand.Rand) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := randComplex(rng)
			a.Set(i, j, v)
			rowSum += math.Hypot(real(v), imag(v))
		}
		phase := rng.Float64() * 2 * math.Pi
		s, c := math.Sincos(phase)
		mag := 2*rowSum + 1
		a.Set(i, i, complex(mag*c, mag*s))
	}
	return a
}

func TestSolveResidualOnWellConditionedSystems(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x501_7E57))
		n := 1 + rng.IntN(12)
		a := diagDominant(n, rng)
		b := make([]complex128, n)
		for i := range b {
			b[i] = randComplex(rng)
		}
		x, err := linalg.Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		res := a.MulVec(x)
		for i := range res {
			res[i] -= b[i]
		}
		rel := vecNorm(res) / (vecNorm(b) + 1e-300)
		if rel > 1e-10 {
			t.Errorf("trial %d (n=%d): relative residual %g exceeds 1e-10", trial, n, rel)
		}
	}
}

func TestLeastSquaresSatisfiesNormalEquations(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x15CA7E5))
		n := 1 + rng.IntN(6)
		m := n + 1 + rng.IntN(8) // strictly overdetermined
		a := linalg.NewMatrix(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, randComplex(rng))
			}
		}
		b := make([]complex128, m)
		for i := range b {
			b[i] = randComplex(rng)
		}
		x, err := linalg.LeastSquares(a, b)
		if err != nil {
			t.Fatalf("trial %d (m=%d n=%d): %v", trial, m, n, err)
		}
		// Optimality: the residual must be orthogonal to the column space,
		// i.e. Aᴴ(Ax − b) ≈ 0 relative to the data scale. The solver's
		// Tikhonov jitter perturbs x by ~1e-12·‖x‖, so the gradient norm is
		// checked against a tolerance well above that but far below any
		// genuine misfit.
		r := a.MulVec(x)
		for i := range r {
			r[i] -= b[i]
		}
		grad := a.ConjTranspose().MulVec(r)
		rel := vecNorm(grad) / (vecNorm(b) + 1e-300)
		if rel > 1e-6 {
			t.Errorf("trial %d (m=%d n=%d): normal-equation residual %g exceeds 1e-6", trial, m, n, rel)
		}
	}
}
