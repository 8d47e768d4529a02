package stab

import (
	"fmt"
	"math/bits"
	"math/rand"

	"casq/internal/pauli"
)

// Tableau is a bit-packed Aaronson-Gottesman stabilizer tableau on n
// qubits: rows 0..n-1 are destabilizer generators, rows n..2n-1 stabilizer
// generators, plus one scratch row for deterministic-measurement phase
// accumulation. Row Paulis are stored as X/Z bitmasks over uint64 words
// with one sign bit per row, so a 127-qubit row is two words — conjugating
// the full tableau through a layer of Cliffords is O(n rows * O(1) per
// touched qubit), never 2^n.
type Tableau struct {
	n, words int
	x, z     []uint64 // (2n+1) rows * words
	sign     []bool   // per row: true = -1
}

// NewTableau returns the tableau of |0...0>: destabilizer i = X_i,
// stabilizer i = Z_i, all signs +.
func NewTableau(n int) *Tableau {
	words := (n + 63) / 64
	t := &Tableau{
		n:     n,
		words: words,
		x:     make([]uint64, (2*n+1)*words),
		z:     make([]uint64, (2*n+1)*words),
		sign:  make([]bool, 2*n+1),
	}
	for i := 0; i < n; i++ {
		t.x[i*words+i/64] |= 1 << (i % 64)
		t.z[(n+i)*words+i/64] |= 1 << (i % 64)
	}
	return t
}

// N returns the qubit count.
func (t *Tableau) N() int { return t.n }

// rowPauli extracts the Pauli of row r at qubit q.
func (t *Tableau) rowPauli(r, q int) pauli.Pauli {
	w, b := q/64, uint(q%64)
	xb := (t.x[r*t.words+w] >> b) & 1
	zb := (t.z[r*t.words+w] >> b) & 1
	return pauliFromXZ(xb, zb)
}

// setRowPauli writes the Pauli of row r at qubit q.
func (t *Tableau) setRowPauli(r, q int, p pauli.Pauli) {
	w, b := q/64, uint(q%64)
	xb, zb := xzFromPauli(p)
	t.x[r*t.words+w] = t.x[r*t.words+w]&^(1<<b) | xb<<b
	t.z[r*t.words+w] = t.z[r*t.words+w]&^(1<<b) | zb<<b
}

// pauliFromXZ maps symplectic bits to a Pauli: (0,0)=I, (1,0)=X, (1,1)=Y,
// (0,1)=Z.
func pauliFromXZ(xb, zb uint64) pauli.Pauli {
	switch {
	case xb == 1 && zb == 0:
		return pauli.X
	case xb == 1 && zb == 1:
		return pauli.Y
	case xb == 0 && zb == 1:
		return pauli.Z
	}
	return pauli.I
}

func xzFromPauli(p pauli.Pauli) (xb, zb uint64) {
	switch p {
	case pauli.X:
		return 1, 0
	case pauli.Y:
		return 1, 1
	case pauli.Z:
		return 0, 1
	}
	return 0, 0
}

// ApplyClifford1 conjugates every row through a one-qubit Clifford on q.
func (t *Tableau) ApplyClifford1(q int, tbl *pauli.Clifford1Q) {
	for r := 0; r < 2*t.n; r++ {
		p := t.rowPauli(r, q)
		if p == pauli.I {
			continue
		}
		c := tbl.Conjugate(p)
		t.setRowPauli(r, q, c.Out)
		if c.Sign < 0 {
			t.sign[r] = !t.sign[r]
		}
	}
}

// ApplyClifford2 conjugates every row through a two-qubit Clifford whose
// first operand is q0 (the Pair.P0 slot of the table).
func (t *Tableau) ApplyClifford2(q0, q1 int, tbl *pauli.CliffordTable) {
	for r := 0; r < 2*t.n; r++ {
		p0 := t.rowPauli(r, q0)
		p1 := t.rowPauli(r, q1)
		if p0 == pauli.I && p1 == pauli.I {
			continue
		}
		c := tbl.Conjugate(pauli.Pair{P0: p0, P1: p1})
		t.setRowPauli(r, q0, c.Out.P0)
		t.setRowPauli(r, q1, c.Out.P1)
		if c.Sign < 0 {
			t.sign[r] = !t.sign[r]
		}
	}
}

// ApplyPauli conjugates every row through a Pauli gate on q: rows whose
// factor at q anticommutes with p flip sign.
func (t *Tableau) ApplyPauli(q int, p pauli.Pauli) {
	if p == pauli.I {
		return
	}
	for r := 0; r < 2*t.n; r++ {
		if !t.rowPauli(r, q).Commutes(p) {
			t.sign[r] = !t.sign[r]
		}
	}
}

// mulRowFrom sets row dst := row src * row dst with exact sign tracking.
// The product of two commuting-or-not Hermitian Paulis is i^k times a
// Pauli; tableau row products always land on an even k (a Hermitian
// result), which is asserted.
func (t *Tableau) mulRowFrom(dst, src int) {
	phase := 0 // exponent of i, mod 4
	if t.sign[dst] {
		phase += 2
	}
	if t.sign[src] {
		phase += 2
	}
	for q := 0; q < t.n; q++ {
		ps := t.rowPauli(src, q)
		pd := t.rowPauli(dst, q)
		if ps == pauli.I || pd == pauli.I {
			continue
		}
		k, _ := pauli.Mul(ps, pd)
		phase += k
	}
	for w := 0; w < t.words; w++ {
		t.x[dst*t.words+w] ^= t.x[src*t.words+w]
		t.z[dst*t.words+w] ^= t.z[src*t.words+w]
	}
	switch phase % 4 {
	case 0:
		t.sign[dst] = false
	case 2:
		t.sign[dst] = true
	default:
		panic(fmt.Sprintf("stab: non-Hermitian row product (phase i^%d)", phase%4))
	}
}

// anticommutesMask reports whether row r anticommutes with the packed
// Pauli (px, pz): the symplectic form parity over all qubits.
func (t *Tableau) anticommutesMask(r int, px, pz []uint64) bool {
	var par uint64
	for w := 0; w < t.words; w++ {
		par ^= t.x[r*t.words+w] & pz[w]
		par ^= t.z[r*t.words+w] & px[w]
	}
	return parity64(par)
}

func parity64(v uint64) bool { return bits.OnesCount64(v)&1 == 1 }

// MeasureZ measures Z on qubit q in place, drawing nondeterministic
// outcomes from rng. It returns the outcome bit, whether the outcome was
// deterministic, and — for nondeterministic measurements — the packed
// X/Z masks of the pre-measurement stabilizer that anticommuted with Z_q.
// Multiplying a Pauli frame by that mask maps the recorded collapse
// branch onto the opposite one, which is how the frame sampler re-draws
// nondeterministic outcomes per shot without losing multi-qubit outcome
// correlations.
func (t *Tableau) MeasureZ(q int, rng *rand.Rand) (bit int, deterministic bool, flipX, flipZ []uint64) {
	w, b := q/64, uint(q%64)
	p := -1
	for r := t.n; r < 2*t.n; r++ {
		if (t.x[r*t.words+w]>>b)&1 == 1 {
			p = r
			break
		}
	}
	if p >= 0 {
		// Nondeterministic: record the anticommuting stabilizer for frame
		// redraws, then perform the standard CHP update. Destabilizer p-n
		// is skipped: it always anticommutes with stabilizer p (their
		// product is non-Hermitian) and is overwritten just below.
		flipX = append([]uint64(nil), t.x[p*t.words:(p+1)*t.words]...)
		flipZ = append([]uint64(nil), t.z[p*t.words:(p+1)*t.words]...)
		d := p - t.n
		for r := 0; r < 2*t.n; r++ {
			if r != p && r != d && (t.x[r*t.words+w]>>b)&1 == 1 {
				t.mulRowFrom(r, p)
			}
		}
		// Destabilizer p-n := old stabilizer p; stabilizer p := +/- Z_q.
		copy(t.x[d*t.words:(d+1)*t.words], t.x[p*t.words:(p+1)*t.words])
		copy(t.z[d*t.words:(d+1)*t.words], t.z[p*t.words:(p+1)*t.words])
		t.sign[d] = t.sign[p]
		for i := 0; i < t.words; i++ {
			t.x[p*t.words+i] = 0
			t.z[p*t.words+i] = 0
		}
		t.z[p*t.words+w] = 1 << b
		bit = rng.Intn(2)
		t.sign[p] = bit == 1
		return bit, false, flipX, flipZ
	}
	// Deterministic: accumulate stabilizer rows paired with destabilizers
	// that contain X_q into the scratch row; its sign is the outcome.
	sc := 2 * t.n
	for i := 0; i < t.words; i++ {
		t.x[sc*t.words+i] = 0
		t.z[sc*t.words+i] = 0
	}
	t.sign[sc] = false
	for r := 0; r < t.n; r++ {
		if (t.x[r*t.words+w]>>b)&1 == 1 {
			t.mulRowFrom(sc, r+t.n)
		}
	}
	if t.sign[sc] {
		bit = 1
	}
	return bit, true, nil, nil
}

// ExpectPacked returns <psi| P |psi> for the packed Pauli (px, pz) with
// the given sign (true = -P): exactly +1, -1, or 0 on a stabilizer state.
func (t *Tableau) ExpectPacked(px, pz []uint64, neg bool) float64 {
	for r := t.n; r < 2*t.n; r++ {
		if t.anticommutesMask(r, px, pz) {
			return 0
		}
	}
	// P commutes with the whole group, so it is +/- a product of
	// stabilizer generators: generator i participates iff destabilizer i
	// anticommutes with P.
	sc := 2 * t.n
	for i := 0; i < t.words; i++ {
		t.x[sc*t.words+i] = 0
		t.z[sc*t.words+i] = 0
	}
	t.sign[sc] = false
	for r := 0; r < t.n; r++ {
		if t.anticommutesMask(r, px, pz) {
			t.mulRowFrom(sc, r+t.n)
		}
	}
	for w := 0; w < t.words; w++ {
		if t.x[sc*t.words+w] != px[w] || t.z[sc*t.words+w] != pz[w] {
			panic("stab: stabilizer-product reconstruction mismatch")
		}
	}
	val := 1.0
	if t.sign[sc] != neg {
		val = -1
	}
	return val
}

// Expect returns the expectation of a pauli.String (phase must be real,
// i.e. Phase in {0, 2}).
func (t *Tableau) Expect(s pauli.String) (float64, error) {
	if len(s.Ops) != t.n {
		return 0, fmt.Errorf("stab: Pauli string length %d != %d qubits", len(s.Ops), t.n)
	}
	ph := ((s.Phase % 4) + 4) % 4
	if ph%2 != 0 {
		return 0, fmt.Errorf("stab: non-Hermitian observable phase i^%d", ph)
	}
	px := make([]uint64, t.words)
	pz := make([]uint64, t.words)
	for q, p := range s.Ops {
		xb, zb := xzFromPauli(p)
		px[q/64] |= xb << (q % 64)
		pz[q/64] |= zb << (q % 64)
	}
	return t.ExpectPacked(px, pz, ph == 2), nil
}
