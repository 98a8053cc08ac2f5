// Package linalg holds the decoder's one linear solve and the reference it
// is pinned to. Workspace (scratch.go) solves the jittered normal equations
// of the paper's Eqn. 2 in place, without allocating; the Matrix algebra in
// this file — Gaussian elimination with partial pivoting under LeastSquares —
// is the allocating textbook form the tests hold them to: SolveJittered bit
// for bit, the decoder's closed-form Gram to rounding error.
//
// Matrices are dense, row-major, and small (tens of rows at most per solve),
// so simplicity and numerical robustness win over asymptotic tricks.
package linalg

import (
	"errors"
	"fmt"
	"math/cmplx"
)

// ErrSingular is returned when a system has no unique solution at working
// precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// Matrix is a dense complex matrix in row-major order.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ConjTranspose returns the Hermitian transpose Aᴴ.
func (m *Matrix) ConjTranspose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, cmplx.Conj(m.At(i, j)))
		}
	}
	return out
}

// Mul returns the matrix product m·other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Data[i*out.Cols+j] += a * other.At(k, j)
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []complex128) []complex128 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by vector of length %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	return out
}

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified.
func Solve(a *Matrix, b []complex128) ([]complex128, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: matrix is %dx%d but rhs has length %d", a.Rows, a.Cols, len(b))
	}
	n := a.Rows
	m := a.Clone()
	x := append([]complex128(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot: largest magnitude in this column at/below the diagonal.
		pivot, pmag := col, cmplx.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(m.At(r, col)); mag > pmag {
				pivot, pmag = r, mag
			}
		}
		if pmag < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				m.Data[col*n+j], m.Data[pivot*n+j] = m.Data[pivot*n+j], m.Data[col*n+j]
			}
			x[col], x[pivot] = x[pivot], x[col]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			factor := m.At(r, col) * inv
			if factor == 0 {
				continue
			}
			for j := col; j < n; j++ {
				m.Data[r*n+j] -= factor * m.Data[col*n+j]
			}
			x[r] -= factor * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min_x ||A·x − b||₂ via the normal equations
// (AᴴA)x = Aᴴb, the closed form the paper uses for channel estimation
// (Eqn. 2). A must have Rows >= Cols and full column rank.
func LeastSquares(a *Matrix, b []complex128) ([]complex128, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: LeastSquares requires rows >= cols, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: matrix is %dx%d but rhs has length %d", a.Rows, a.Cols, len(b))
	}
	ah := a.ConjTranspose()
	ata := ah.Mul(a)
	// Tikhonov-style jitter keeps nearly collinear regressors (two users with
	// almost identical frequency offsets) from blowing up the solve.
	eps := complex(1e-12*matrixScale(ata), 0)
	for i := 0; i < ata.Rows; i++ {
		ata.Data[i*ata.Cols+i] += eps
	}
	atb := ah.MulVec(b)
	return Solve(ata, atb)
}

// matrixScale returns the mean diagonal magnitude, used to scale
// regularization.
func matrixScale(m *Matrix) float64 {
	var s float64
	n := m.Rows
	for i := 0; i < n; i++ {
		s += cmplx.Abs(m.At(i, i))
	}
	if n == 0 {
		return 1
	}
	return s / float64(n)
}
