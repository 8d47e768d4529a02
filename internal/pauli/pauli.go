// Package pauli implements the single- and multi-qubit Pauli algebra used by
// Pauli twirling and by the CA-EC compensation pass: products with phase
// tracking, (anti)commutation tests, and conjugation tables through Clifford
// gates built numerically from their matrices.
package pauli

import (
	"fmt"

	"casq/internal/linalg"
)

// Pauli labels a single-qubit Pauli operator.
type Pauli byte

// The four single-qubit Paulis.
const (
	I Pauli = iota
	X
	Y
	Z
)

var names = [4]string{"I", "X", "Y", "Z"}

// String returns "I", "X", "Y", or "Z".
func (p Pauli) String() string {
	if p > Z {
		return fmt.Sprintf("Pauli(%d)", byte(p))
	}
	return names[p]
}

// Parse converts a single-character Pauli label.
func Parse(c byte) (Pauli, error) {
	switch c {
	case 'I', 'i':
		return I, nil
	case 'X', 'x':
		return X, nil
	case 'Y', 'y':
		return Y, nil
	case 'Z', 'z':
		return Z, nil
	}
	return I, fmt.Errorf("pauli: invalid label %q", c)
}

// Matrix returns the 2x2 matrix of p.
func (p Pauli) Matrix() linalg.Matrix {
	switch p {
	case I:
		return linalg.FromRows([][]complex128{{1, 0}, {0, 1}})
	case X:
		return linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	case Y:
		return linalg.FromRows([][]complex128{{0, -1i}, {1i, 0}})
	case Z:
		return linalg.FromRows([][]complex128{{1, 0}, {0, -1}})
	}
	panic("pauli: invalid Pauli")
}

// Commutes reports whether p and q commute (true unless both are non-identity
// and different).
func (p Pauli) Commutes(q Pauli) bool {
	return p == I || q == I || p == q
}

// mulTable[p][q] gives (phase exponent k, result r) with p*q = i^k r.
var mulTable = [4][4]struct {
	phase int // exponent of i
	res   Pauli
}{
	I: {I: {0, I}, X: {0, X}, Y: {0, Y}, Z: {0, Z}},
	X: {I: {0, X}, X: {0, I}, Y: {1, Z}, Z: {3, Y}},
	Y: {I: {0, Y}, X: {3, Z}, Y: {0, I}, Z: {1, X}},
	Z: {I: {0, Z}, X: {1, Y}, Y: {3, X}, Z: {0, I}},
}

// Mul returns p*q as (i^phase, result).
func Mul(p, q Pauli) (phase int, r Pauli) {
	e := mulTable[p][q]
	return e.phase, e.res
}

// String is a multi-qubit Pauli operator with a phase i^Phase; Ops[k] acts on
// qubit k.
type String struct {
	Ops   []Pauli
	Phase int // exponent of i, modulo 4
}

// NewString builds an identity Pauli string on n qubits.
func NewString(n int) String {
	return String{Ops: make([]Pauli, n)}
}

// ParseString parses labels like "XIZ" with Ops[0] being the leftmost
// character (acting on qubit 0).
func ParseString(s string) (String, error) {
	ps := NewString(len(s))
	for i := 0; i < len(s); i++ {
		p, err := Parse(s[i])
		if err != nil {
			return String{}, err
		}
		ps.Ops[i] = p
	}
	return ps, nil
}

// String renders the operator, including a phase prefix when nontrivial.
func (s String) String() string {
	pre := [4]string{"", "i", "-", "-i"}[((s.Phase%4)+4)%4]
	out := pre
	for _, p := range s.Ops {
		out += p.String()
	}
	return out
}

// Pair is an ordered pair of single-qubit Paulis acting on (q0, q1) of a
// two-qubit gate.
type Pair struct {
	P0, P1 Pauli
}

// Conjugation records G (P0 x P1) G^dagger = sign * (Q0 x Q1) for a Clifford
// two-qubit gate G. Sign is +1 or -1.
type Conjugation struct {
	Out  Pair
	Sign int
}

// CliffordTable maps input Pauli pairs to their conjugations through a fixed
// two-qubit Clifford gate.
type CliffordTable struct {
	table [16]Conjugation
}

func pairIndex(p Pair) int { return int(p.P0)*4 + int(p.P1) }

// NewCliffordTable builds the conjugation table for the 4x4 Clifford unitary
// g, whose basis convention is |first operand, second operand> with the
// first operand as the high bit (matching gates.Matrix2Q). P0 of a Pair acts
// on the first operand. It returns an error if g does not map every Pauli
// pair to +/- another Pauli pair, i.e. if g is not Clifford (up to phase).
func NewCliffordTable(g linalg.Matrix) (*CliffordTable, error) {
	if g.N != 4 {
		return nil, fmt.Errorf("pauli: Clifford table needs a 4x4 matrix, got %dx%d", g.N, g.N)
	}
	gd := linalg.Dagger(g)
	var t CliffordTable
	for p0 := I; p0 <= Z; p0++ {
		for p1 := I; p1 <= Z; p1++ {
			in := linalg.Kron(p0.Matrix(), p1.Matrix()) // first operand = high bit
			conj := linalg.MulChain(g, in, gd)
			found := false
			for q0 := I; q0 <= Z && !found; q0++ {
				for q1 := I; q1 <= Z && !found; q1++ {
					cand := linalg.Kron(q0.Matrix(), q1.Matrix())
					for _, sign := range []int{1, -1} {
						scaled := linalg.Scale(complex(float64(sign), 0), cand)
						if linalg.ApproxEqual(conj, scaled, 1e-9) {
							t.table[pairIndex(Pair{p0, p1})] = Conjugation{Pair{q0, q1}, sign}
							found = true
							break
						}
					}
				}
			}
			if !found {
				return nil, fmt.Errorf("pauli: matrix is not Clifford: no Pauli image for %v%v", p0, p1)
			}
		}
	}
	return &t, nil
}

// Conjugate returns the image of pair p under the table's gate.
func (t *CliffordTable) Conjugate(p Pair) Conjugation {
	return t.table[pairIndex(p)]
}

// Conjugation1 records G P G^dagger = sign * Q for a one-qubit Clifford
// gate G. Sign is +1 or -1.
type Conjugation1 struct {
	Out  Pauli
	Sign int
}

// Clifford1Q maps single-qubit Paulis through conjugation by a fixed
// one-qubit Clifford gate. It is the 1q analogue of CliffordTable and is
// what the stabilizer tableau and the Pauli-frame sampler use to push
// frames through SX/H/S-type layers.
type Clifford1Q struct {
	table [4]Conjugation1
}

// NewClifford1Q builds the conjugation table for the 2x2 Clifford unitary
// g. It returns an error if g does not map every Pauli to +/- a Pauli,
// i.e. if g is not Clifford (up to phase).
func NewClifford1Q(g linalg.Matrix) (*Clifford1Q, error) {
	if g.N != 2 {
		return nil, fmt.Errorf("pauli: 1q Clifford table needs a 2x2 matrix, got %dx%d", g.N, g.N)
	}
	gd := linalg.Dagger(g)
	var t Clifford1Q
	for p := I; p <= Z; p++ {
		conj := linalg.MulChain(g, p.Matrix(), gd)
		found := false
		for q := I; q <= Z && !found; q++ {
			for _, sign := range []int{1, -1} {
				scaled := linalg.Scale(complex(float64(sign), 0), q.Matrix())
				if linalg.ApproxEqual(conj, scaled, 1e-9) {
					t.table[p] = Conjugation1{q, sign}
					found = true
					break
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("pauli: matrix is not Clifford: no Pauli image for %v", p)
		}
	}
	return &t, nil
}

// Conjugate returns the image of p under the table's gate.
func (t *Clifford1Q) Conjugate(p Pauli) Conjugation1 {
	return t.table[p]
}

// InvertFor returns the pair (Q0, Q1) such that applying (P0 x P1) before the
// gate and (Q0 x Q1) after it leaves the gate's action unchanged up to the
// returned sign: (Q0 x Q1) G (P0 x P1) = sign * G. This is the relation a
// Pauli twirl needs.
func (t *CliffordTable) InvertFor(p Pair) (Pair, int) {
	// G P = (G P G^dagger) G = sign * (Q' ) G, so the after-gate correction is
	// the inverse of the conjugated Pauli; Paulis are self-inverse so the
	// correction is the conjugated pair itself and the sign carries over.
	c := t.Conjugate(p)
	return c.Out, c.Sign
}

// ExpectationOnState computes <v| s |v> for a statevector v.
func (s String) ExpectationOnState(v linalg.Vector) float64 {
	// Apply s to a copy and take the inner product.
	w := v.Copy()
	for q, p := range s.Ops {
		if p == I {
			continue
		}
		w.Apply1Q(p.Matrix(), q)
	}
	ph := [4]complex128{1, 1i, -1, -1i}[((s.Phase%4)+4)%4]
	ip := linalg.Inner(v, w)
	return real(ph * ip)
}
