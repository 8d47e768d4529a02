// Package linalg provides the small dense complex linear algebra kernel used
// throughout casq: column-major-free square matrices, Kronecker products,
// dagger, matrix-vector products on n-qubit statevectors, and numerical
// comparisons. Everything is complex128 and allocation-explicit; matrices
// are tiny (2x2 .. 16x16) while vectors can be 2^n entries.
package linalg

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix is a square complex matrix stored row-major.
type Matrix struct {
	N    int          // dimension
	Data []complex128 // len N*N, row-major
}

// NewMatrix returns an N x N zero matrix.
func NewMatrix(n int) Matrix {
	return Matrix{N: n, Data: make([]complex128, n*n)}
}

// FromRows builds a matrix from row slices. All rows must have equal length
// matching the number of rows.
func FromRows(rows [][]complex128) Matrix {
	n := len(rows)
	m := NewMatrix(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("linalg: row %d has length %d, want %d", i, len(r), n))
		}
		copy(m.Data[i*n:(i+1)*n], r)
	}
	return m
}

// Identity returns the N x N identity.
func Identity(n int) Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m Matrix) At(i, j int) complex128 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m Matrix) Set(i, j int, v complex128) { m.Data[i*m.N+j] = v }

// Copy returns a deep copy of m.
func (m Matrix) Copy() Matrix {
	c := NewMatrix(m.N)
	copy(c.Data, m.Data)
	return c
}

// Mul returns a*b.
func Mul(a, b Matrix) Matrix {
	if a.N != b.N {
		panic(fmt.Sprintf("linalg: dimension mismatch %d x %d", a.N, b.N))
	}
	n := a.N
	c := NewMatrix(n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a.Data[i*n+k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c.Data[i*n+j] += aik * b.Data[k*n+j]
			}
		}
	}
	return c
}

// MulChain multiplies matrices left to right: MulChain(a,b,c) = a*b*c.
func MulChain(ms ...Matrix) Matrix {
	if len(ms) == 0 {
		panic("linalg: MulChain needs at least one matrix")
	}
	acc := ms[0].Copy()
	for _, m := range ms[1:] {
		acc = Mul(acc, m)
	}
	return acc
}

// Add returns a+b.
func Add(a, b Matrix) Matrix {
	if a.N != b.N {
		panic("linalg: dimension mismatch in Add")
	}
	c := NewMatrix(a.N)
	for i := range a.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Scale returns s*m.
func Scale(s complex128, m Matrix) Matrix {
	c := NewMatrix(m.N)
	for i := range m.Data {
		c.Data[i] = s * m.Data[i]
	}
	return c
}

// Dagger returns the conjugate transpose of m.
func Dagger(m Matrix) Matrix {
	n := m.N
	d := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d.Data[j*n+i] = cmplx.Conj(m.Data[i*n+j])
		}
	}
	return d
}

// Kron returns the Kronecker product a (x) b.
func Kron(a, b Matrix) Matrix {
	n := a.N * b.N
	c := NewMatrix(n)
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			aij := a.Data[i*a.N+j]
			if aij == 0 {
				continue
			}
			for k := 0; k < b.N; k++ {
				for l := 0; l < b.N; l++ {
					c.Data[(i*b.N+k)*n+(j*b.N+l)] = aij * b.Data[k*b.N+l]
				}
			}
		}
	}
	return c
}

// IsUnitary reports whether m is unitary to within tol (max-norm of
// m*m^dagger - I).
func IsUnitary(m Matrix, tol float64) bool {
	p := Mul(m, Dagger(m))
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

// ApproxEqual reports whether a and b agree element-wise within tol.
func ApproxEqual(a, b Matrix, tol float64) bool {
	if a.N != b.N {
		return false
	}
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// EqualUpToPhase reports whether a = e^{i phi} b for some global phase phi,
// within tol.
func EqualUpToPhase(a, b Matrix, tol float64) bool {
	if a.N != b.N {
		return false
	}
	// Find the largest-magnitude element of b to fix the phase.
	var phase complex128
	best := 0.0
	for i := range b.Data {
		if ab := cmplx.Abs(b.Data[i]); ab > best {
			best = ab
			if cmplx.Abs(a.Data[i]) == 0 {
				return false
			}
			phase = a.Data[i] / b.Data[i]
		}
	}
	if best < tol {
		return ApproxEqual(a, b, tol)
	}
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	return ApproxEqual(a, Scale(phase, b), tol)
}

// Vector is an n-qubit statevector with 2^n amplitudes. Qubit 0 is the
// least-significant bit of the basis index.
type Vector []complex128

// NewVector returns the all-zeros |0...0> state on n qubits.
func NewVector(nQubits int) Vector {
	v := make(Vector, 1<<nQubits)
	v[0] = 1
	return v
}

// Copy returns a deep copy of v.
func (v Vector) Copy() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Norm returns the 2-norm of v.
func (v Vector) Norm() float64 {
	s := 0.0
	for _, a := range v {
		s += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(s)
}

// Normalize scales v to unit norm in place. It panics on the zero vector.
func (v Vector) Normalize() {
	n := v.Norm()
	if n == 0 {
		panic("linalg: cannot normalize zero vector")
	}
	inv := complex(1/n, 0)
	for i := range v {
		v[i] *= inv
	}
}

// Inner returns <a|b>.
func Inner(a, b Vector) complex128 {
	if len(a) != len(b) {
		panic("linalg: dimension mismatch in Inner")
	}
	var s complex128
	for i := range a {
		s += cmplx.Conj(a[i]) * b[i]
	}
	return s
}

// FidelityPure returns |<a|b>|^2 for pure states.
func FidelityPure(a, b Vector) float64 {
	ip := Inner(a, b)
	return real(ip)*real(ip) + imag(ip)*imag(ip)
}

// Apply1Q applies the 2x2 unitary u to qubit q of v in place. The kernel is
// strided: it visits exactly the 2^(n-1) base indices with bit q clear, in
// blocks of 2^q contiguous entries, instead of skip-scanning all 2^n.
func (v Vector) Apply1Q(u Matrix, q int) {
	if u.N != 2 {
		panic("linalg: Apply1Q needs a 2x2 matrix")
	}
	bit := 1 << q
	u00, u01 := u.Data[0], u.Data[1]
	u10, u11 := u.Data[2], u.Data[3]
	for base := 0; base < len(v); base += bit << 1 {
		for i := base; i < base+bit; i++ {
			j := i | bit
			a0, a1 := v[i], v[j]
			v[i] = u00*a0 + u01*a1
			v[j] = u10*a0 + u11*a1
		}
	}
}

// Apply2Q applies the 4x4 unitary u to qubits (q1, q0) of v in place, where
// q0 indexes the least-significant bit of the 4x4 basis {|q1 q0>}. The
// kernel visits exactly the 2^(n-2) base indices with both qubit bits
// clear, striding over the high and low bit positions.
func (v Vector) Apply2Q(u Matrix, q1, q0 int) {
	if u.N != 4 {
		panic("linalg: Apply2Q needs a 4x4 matrix")
	}
	if q1 == q0 {
		panic("linalg: Apply2Q qubits must differ")
	}
	b0 := 1 << q0
	b1 := 1 << q1
	lo, hi := b0, b1
	if lo > hi {
		lo, hi = hi, lo
	}
	u00, u01, u02, u03 := u.Data[0], u.Data[1], u.Data[2], u.Data[3]
	u10, u11, u12, u13 := u.Data[4], u.Data[5], u.Data[6], u.Data[7]
	u20, u21, u22, u23 := u.Data[8], u.Data[9], u.Data[10], u.Data[11]
	u30, u31, u32, u33 := u.Data[12], u.Data[13], u.Data[14], u.Data[15]
	for outer := 0; outer < len(v); outer += hi << 1 {
		for inner := outer; inner < outer+hi; inner += lo << 1 {
			for i00 := inner; i00 < inner+lo; i00++ {
				i01 := i00 | b0
				i10 := i00 | b1
				i11 := i01 | b1
				a0, a1, a2, a3 := v[i00], v[i01], v[i10], v[i11]
				v[i00] = u00*a0 + u01*a1 + u02*a2 + u03*a3
				v[i01] = u10*a0 + u11*a1 + u12*a2 + u13*a3
				v[i10] = u20*a0 + u21*a1 + u22*a2 + u23*a3
				v[i11] = u30*a0 + u31*a1 + u32*a2 + u33*a3
			}
		}
	}
}

// Prob returns the probability of measuring qubit q in state bit (0 or 1).
func (v Vector) Prob(q int, bit int) float64 {
	mask := 1 << q
	p := 0.0
	for i, a := range v {
		hit := (i&mask != 0) == (bit == 1)
		if hit {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// Collapse projects qubit q onto outcome bit and renormalizes.
func (v Vector) Collapse(q int, bit int) {
	mask := 1 << q
	for i := range v {
		if (i&mask != 0) != (bit == 1) {
			v[i] = 0
		}
	}
	v.Normalize()
}

// String renders the matrix for debugging.
func (m Matrix) String() string {
	s := ""
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			s += fmt.Sprintf("(%6.3f%+6.3fi) ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		s += "\n"
	}
	return s
}
