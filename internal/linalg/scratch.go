package linalg

import (
	"fmt"
	"math/cmplx"
)

// Workspace holds reusable storage for the allocation-free normal-equation
// solve. A Workspace is owned by exactly one goroutine (in the decoder, one
// per pooled Decoder); its buffers grow to the largest problem seen and are
// then reused verbatim. The system NormalSystem hands out and the solution
// SolveJittered returns alias the workspace and stay valid only until the
// next call of the same method.
//
// SolveJittered performs bit-for-bit the floating-point operations
// LeastSquares applies to AᴴA and Aᴴb once it has formed them — the same
// jitter, then Solve's elimination — so a caller that fills the system with
// the values LeastSquares would have computed gets LeastSquares' answer.
type Workspace struct {
	ata Matrix       // AᴴA as filled by the caller, then its LU factors (eliminated in place)
	atb []complex128 // Aᴴb as filled by the caller
	x   []complex128
}

// reuse shapes m to rows×cols backed by its (grown) existing storage.
func reuse(m *Matrix, rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	if cap(m.Data) < rows*cols {
		m.Data = make([]complex128, rows*cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

func reuseVec(v []complex128, n int) []complex128 {
	if cap(v) < n {
		return make([]complex128, n)
	}
	return v[:n]
}

// NormalSystem returns a zeroed k×k matrix and a zeroed length-k vector
// backed by the workspace, for a caller that can write the normal equations
// (AᴴA)x = Aᴴb down directly — the decoder's tone regressors have a
// closed-form Gram matrix — instead of forming them from an explicit A.
// SolveJittered then solves what the caller filled in.
func (w *Workspace) NormalSystem(k int) (ata *Matrix, atb []complex128) {
	ata = reuse(&w.ata, k, k)
	clear(ata.Data)
	w.atb = reuseVec(w.atb, k)
	clear(w.atb)
	return ata, w.atb
}

// SolveJittered solves the system last handed out by NormalSystem the way
// LeastSquares solves its normal equations: Tikhonov jitter of 1e-12 times
// the mean diagonal magnitude on the diagonal (nearly collinear regressors
// must not blow up the solve), then Gaussian elimination with partial
// pivoting. It destroys the matrix, leaves the right-hand side intact and
// allocates nothing once the workspace has grown. The returned solution
// aliases the workspace and is valid until the next SolveJittered.
func (w *Workspace) SolveJittered() ([]complex128, error) {
	ata := &w.ata
	eps := complex(1e-12*matrixScale(ata), 0)
	for i := 0; i < ata.Rows; i++ {
		ata.Data[i*ata.Cols+i] += eps
	}
	return w.solveInPlace(ata, w.atb)
}

// solveInPlace runs the same Gaussian elimination as Solve but destroys m
// (which is already workspace scratch) instead of cloning it. The arithmetic
// — pivot choice, elimination order, back substitution — is identical.
func (w *Workspace) solveInPlace(m *Matrix, b []complex128) ([]complex128, error) {
	n := m.Rows
	x := reuseVec(w.x, n)
	w.x = x
	copy(x, b)

	for col := 0; col < n; col++ {
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
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}
