package linalg

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

func randomTall(rng *rand.Rand, rows, cols int) (*Matrix, []complex128) {
	a := NewMatrix(rows, cols)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, rows)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a, b
}

// fillNormal writes AᴴA and Aᴴb into the workspace's system exactly as
// LeastSquares forms them, and returns a copy of the filled matrix.
func fillNormal(w *Workspace, a *Matrix, b []complex128) *Matrix {
	ah := a.ConjTranspose()
	ata, atb := w.NormalSystem(a.Cols)
	copy(ata.Data, ah.Mul(a).Data)
	copy(atb, ah.MulVec(b))
	return ata.Clone()
}

func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestSolveJitteredBitIdentical pins the workspace solve to its allocating
// references: Float64bits-equal to Solve on the jittered matrix, and — given
// the normal equations LeastSquares forms — to LeastSquares itself.
func TestSolveJitteredBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0x7777))
	var w Workspace
	for trial := 0; trial < 100; trial++ {
		rows := 2 + rng.IntN(40)
		cols := 1 + rng.IntN(rows)
		a, b := randomTall(rng, rows, cols)
		jittered := fillNormal(&w, a, b)
		eps := complex(1e-12*matrixScale(jittered), 0)
		for i := 0; i < cols; i++ {
			jittered.Data[i*cols+i] += eps
		}
		atb := a.ConjTranspose().MulVec(b)
		want, errWant := Solve(jittered, atb)
		ls, errLS := LeastSquares(a, b)
		got, errGot := w.SolveJittered()
		if (errWant == nil) != (errGot == nil) || (errLS == nil) != (errGot == nil) {
			t.Fatalf("error mismatch: Solve %v, LeastSquares %v, SolveJittered %v", errWant, errLS, errGot)
		}
		if errWant != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("length %d, want %d", len(got), len(want))
		}
		for i := range want {
			if !bitsEqual(got[i], want[i]) || !bitsEqual(got[i], ls[i]) {
				t.Fatalf("trial %d (%dx%d): x[%d] = %v, Solve %v, LeastSquares %v (bit mismatch)",
					trial, rows, cols, i, got[i], want[i], ls[i])
			}
		}
	}
}

// TestSolveJitteredReuse exercises shrink/grow cycles on one workspace.
func TestSolveJitteredReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0x8888))
	var w Workspace
	for _, shape := range [][2]int{{30, 4}, {8, 2}, {64, 6}, {8, 2}, {3, 3}} {
		a, b := randomTall(rng, shape[0], shape[1])
		want, errWant := LeastSquares(a, b)
		fillNormal(&w, a, b)
		got, errGot := w.SolveJittered()
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("%v: error mismatch: %v vs %v", shape, errWant, errGot)
		}
		if errWant != nil {
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%v: length %d, want %d", shape, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: x[%d] = %v, want %v", shape, i, got[i], want[i])
			}
		}
	}
}

// TestSolveJitteredSingular: an all-zero system has a zero mean diagonal, so
// the jitter is zero too and the solve must report it.
func TestSolveJitteredSingular(t *testing.T) {
	var w Workspace
	w.NormalSystem(2)
	if _, err := w.SolveJittered(); !errors.Is(err, ErrSingular) {
		t.Fatalf("all-zero system: err = %v, want ErrSingular", err)
	}
}

// TestNormalSystemZeroed ensures reuse does not leak a previous system — not
// what the caller wrote, and not the LU factors the solve left behind.
func TestNormalSystemZeroed(t *testing.T) {
	var w Workspace
	m, rhs := w.NormalSystem(4)
	for i := range m.Data {
		m.Data[i] = complex(float64(i+1), 1)
	}
	for i := range rhs {
		rhs[i] = complex(1, 1)
	}
	if _, err := w.SolveJittered(); err != nil {
		t.Fatal(err)
	}
	m2, rhs2 := w.NormalSystem(3)
	if m2.Rows != 3 || m2.Cols != 3 || len(m2.Data) != 9 || len(rhs2) != 3 {
		t.Fatalf("shape %dx%d (%d elements), rhs %d; want 3x3, 3", m2.Rows, m2.Cols, len(m2.Data), len(rhs2))
	}
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("matrix element %d = %v, want 0", i, v)
		}
	}
	for i, v := range rhs2 {
		if v != 0 {
			t.Fatalf("rhs element %d = %v, want 0", i, v)
		}
	}
}

func TestSolveJitteredZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0x9999))
	a, b := randomTall(rng, 32, 4)
	ah := a.ConjTranspose()
	ataWant, atbWant := ah.Mul(a), ah.MulVec(b)
	var w Workspace
	solve := func() {
		ata, atb := w.NormalSystem(4)
		copy(ata.Data, ataWant.Data)
		copy(atb, atbWant)
		if _, err := w.SolveJittered(); err != nil {
			t.Fatal(err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(50, solve); allocs != 0 {
		t.Fatalf("NormalSystem + SolveJittered allocate %.1f/op after warm-up, want 0", allocs)
	}
}
