package linalg

import (
	"errors"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func randVec(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func vecClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestSolveKnownSystem(t *testing.T) {
	// [1 1; 1 -1] x = [3; 1] -> x = [2; 1]
	a := &Matrix{Rows: 2, Cols: 2, Data: []complex128{1, 1, 1, -1}}
	x, err := Solve(a, []complex128{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecClose(x, []complex128{2, 1}, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveComplexSystem(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []complex128{1i, 2, 3, 4i}}
	want := []complex128{1 - 1i, 2 + 0.5i}
	b := a.MulVec(want)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecClose(x, want, 1e-12) {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []complex128{1, 2, 2, 4}}
	if _, err := Solve(a, []complex128{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Solve(a, make([]complex128, 2)); err == nil {
		t.Error("non-square Solve succeeded")
	}
	sq := NewMatrix(2, 2)
	if _, err := Solve(sq, make([]complex128, 3)); err == nil {
		t.Error("mismatched rhs Solve succeeded")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := &Matrix{Rows: 2, Cols: 2, Data: []complex128{0, 1, 1, 0}}
	x, err := Solve(a, []complex128{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !vecClose(x, []complex128{7, 5}, 1e-12) {
		t.Errorf("x = %v", x)
	}
}

func TestSolveRandomRoundTripProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 1 + int(seed%8)
		a := randMatrix(rng, n, n)
		want := randVec(rng, n)
		b := a.MulVec(want)
		x, err := Solve(a, b)
		if err != nil {
			return true // random singular matrix: vanishingly rare, skip
		}
		return vecClose(x, want, 1e-7)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	a := randMatrix(rng, 20, 3)
	want := randVec(rng, 3)
	b := a.MulVec(want)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !vecClose(x, want, 1e-6) {
		t.Errorf("x = %v, want %v", x, want)
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The least-squares residual must be orthogonal to the column space:
	// Aᴴ(b − Ax) ≈ 0.
	rng := rand.New(rand.NewPCG(5, 5))
	a := randMatrix(rng, 30, 4)
	b := randVec(rng, 30)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax := a.MulVec(x)
	resid := make([]complex128, len(b))
	for i := range b {
		resid[i] = b[i] - ax[i]
	}
	proj := a.ConjTranspose().MulVec(resid)
	for i, v := range proj {
		if cmplx.Abs(v) > 1e-6 {
			t.Errorf("Aᴴr[%d] = %v, want ~0", i, v)
		}
	}
}

func TestLeastSquaresShapeError(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := LeastSquares(a, make([]complex128, 2)); err == nil {
		t.Error("wide LeastSquares succeeded")
	}
}

func TestConjTranspose(t *testing.T) {
	a := &Matrix{Rows: 3, Cols: 2, Data: []complex128{1 + 1i, 2, 3, 4 - 2i, 5i, 6}}
	h := a.ConjTranspose()
	if h.Rows != 2 || h.Cols != 3 {
		t.Fatalf("shape %dx%d", h.Rows, h.Cols)
	}
	if h.At(0, 0) != 1-1i || h.At(1, 2) != 6 || h.At(0, 2) != -5i {
		t.Errorf("ConjTranspose content wrong: %v", h.Data)
	}
}

func TestMulVecAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	a := randMatrix(rng, 4, 5)
	x := randVec(rng, 5)
	col := NewMatrix(5, 1)
	copy(col.Data, x)
	want := a.Mul(col)
	got := a.MulVec(x)
	for i := range got {
		if cmplx.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %v, Mul = %v", i, got[i], want.At(i, 0))
		}
	}
}
