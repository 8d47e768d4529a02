package stab

import (
	"fmt"
	"math/bits"
	"math/rand"

	"casq/internal/pauli"
)

// Tableau is a bit-packed Aaronson-Gottesman stabilizer tableau on n
// qubits: rows 0..n-1 are destabilizer generators, rows n..2n-1 stabilizer
// generators, plus one scratch row (2n) for deterministic-measurement and
// expectation phase accumulation. It is stored qubit-major, as stim
// stores its tableaus (Gidney 2021): qubit q owns an X plane and a Z
// plane of rw = ceil((2n+1)/64) row words, bit r of which is row r's X
// (Z) bit at q, and one sign plane holds every row's sign. A gate on k
// qubits therefore rewrites 2k planes of rw words — four words per plane
// at 127 qubits — as mask arithmetic over all rows at once, never
// visiting rows one by one. A measurement's row products walk one bit per
// qubit; expectations multiply a row-major copy of the stabilizers
// (stabRows) a word at a time.
type Tableau struct {
	n, words int      // qubits; qubit-axis words of a packed Pauli
	rw       int      // row words per plane
	x, z     []uint64 // plane q is [q*rw, (q+1)*rw)
	sign     []uint64 // rw words: bit r set = row r is negated
}

// NewTableau returns the tableau of |0...0>: destabilizer i = X_i,
// stabilizer i = Z_i, all signs +.
func NewTableau(n int) *Tableau {
	rw := (2*n + 1 + 63) / 64
	t := &Tableau{
		n:     n,
		words: (n + 63) / 64,
		rw:    rw,
		x:     make([]uint64, n*rw),
		z:     make([]uint64, n*rw),
		sign:  make([]uint64, rw),
	}
	for i := 0; i < n; i++ {
		t.x[i*rw+i/64] |= 1 << (i % 64)
		t.z[i*rw+(n+i)/64] |= 1 << ((n + i) % 64)
	}
	return t
}

// planes returns the X and Z planes of qubit q.
func (t *Tableau) planes(q int) (xq, zq []uint64) {
	return t.x[q*t.rw : (q+1)*t.rw], t.z[q*t.rw : (q+1)*t.rw]
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

// byPauli splits one word of a qubit's X and Z planes by the rows' factor
// there, indexed like pauli.Pauli: I, X, Y, Z.
func byPauli(x, z uint64) [4]uint64 {
	return [4]uint64{^(x | z), x &^ z, x & z, z &^ x}
}

// ApplyClifford1 conjugates every row through a one-qubit Clifford on q:
// the symplectic masks the bit-plane path uses (symp1), plus a sign flip
// on the rows whose factor at q the table negates.
func (t *Tableau) ApplyClifford1(q int, tbl *pauli.Clifford1Q) {
	s := newSymp1(tbl)
	var neg uint8 // bit p set: tbl negates Pauli p
	for p := pauli.X; p <= pauli.Z; p++ {
		if tbl.Conjugate(p).Sign < 0 {
			neg |= 1 << p
		}
	}
	xq, zq := t.planes(q)
	for w := range t.sign {
		x, z := xq[w], zq[w]
		by := byPauli(x, z)
		for k := neg; k != 0; k &= k - 1 {
			t.sign[w] ^= by[bits.TrailingZeros8(k)]
		}
		xq[w] = (x & s.mxx) ^ (z & s.mzx)
		zq[w] = (x & s.mxz) ^ (z & s.mzz)
	}
}

// ApplyClifford2 conjugates every row through a two-qubit Clifford whose
// first operand is q0 (the Pair.P0 slot of the table): the symplectic
// masks the bit-plane path uses (symp2), plus a sign flip on the rows
// whose factor pair at (q0, q1) the table negates.
func (t *Tableau) ApplyClifford2(q0, q1 int, tbl *pauli.CliffordTable) {
	s := newSymp2(tbl)
	m := &s.m
	var neg uint16 // bit 4*P0+P1 set: tbl negates P0 (x) P1
	for k := 1; k < 16; k++ {
		if tbl.Conjugate(pauli.Pair{P0: pauli.Pauli(k >> 2), P1: pauli.Pauli(k & 3)}).Sign < 0 {
			neg |= 1 << k
		}
	}
	x0p, z0p := t.planes(q0)
	x1p, z1p := t.planes(q1)
	for w := range t.sign {
		x0, z0, x1, z1 := x0p[w], z0p[w], x1p[w], z1p[w]
		by0, by1 := byPauli(x0, z0), byPauli(x1, z1)
		for k := neg; k != 0; k &= k - 1 {
			i := bits.TrailingZeros16(k)
			t.sign[w] ^= by0[i>>2] & by1[i&3]
		}
		x0p[w] = (x0 & m[0][0]) ^ (z0 & m[1][0]) ^ (x1 & m[2][0]) ^ (z1 & m[3][0])
		z0p[w] = (x0 & m[0][1]) ^ (z0 & m[1][1]) ^ (x1 & m[2][1]) ^ (z1 & m[3][1])
		x1p[w] = (x0 & m[0][2]) ^ (z0 & m[1][2]) ^ (x1 & m[2][2]) ^ (z1 & m[3][2])
		z1p[w] = (x0 & m[0][3]) ^ (z0 & m[1][3]) ^ (x1 & m[2][3]) ^ (z1 & m[3][3])
	}
}

// ApplyPauli conjugates every row through a Pauli gate on q: rows whose
// factor at q anticommutes with p flip sign, one masked XOR per row word.
func (t *Tableau) ApplyPauli(q int, p pauli.Pauli) {
	xb, zb := xzFromPauli(p)
	mx, mz := onesIf(zb), onesIf(xb) // symplectic product: x_row*z_p ^ z_row*x_p
	xq, zq := t.planes(q)
	for w := range t.sign {
		t.sign[w] ^= xq[w]&mx ^ zq[w]&mz
	}
}

// negated reports whether row r carries a minus sign.
func (t *Tableau) negated(r int) bool { return t.sign[r/64]>>(r%64)&1 == 1 }

// setSign sets row r's sign (true = -1).
func (t *Tableau) setSign(r int, neg bool) {
	t.sign[r/64] &^= 1 << (r % 64)
	if neg {
		t.sign[r/64] |= 1 << (r % 64)
	}
}

// row returns row r as packed X/Z masks over the qubit axis.
func (t *Tableau) row(r int) (px, pz []uint64) {
	px, pz = make([]uint64, t.words), make([]uint64, t.words)
	w, b := r/64, uint(r%64)
	for q := 0; q < t.n; q++ {
		px[q/64] |= (t.x[q*t.rw+w] >> b & 1) << (q % 64)
		pz[q/64] |= (t.z[q*t.rw+w] >> b & 1) << (q % 64)
	}
	return px, pz
}

// copyRow sets row dst to row src, sign included.
func (t *Tableau) copyRow(dst, src int) {
	ws, bs := src/64, uint(src%64)
	wd, bd := dst/64, uint(dst%64)
	for i := dst / 64; i < len(t.x); i += t.rw {
		t.x[i] = t.x[i]&^(1<<bd) | (t.x[i-wd+ws]>>bs&1)<<bd
		t.z[i] = t.z[i]&^(1<<bd) | (t.z[i-wd+ws]>>bs&1)<<bd
	}
	t.setSign(dst, t.negated(src))
}

// clearRow sets row r to +I.
func (t *Tableau) clearRow(r int) {
	for i := r / 64; i < len(t.x); i += t.rw {
		t.x[i] &^= 1 << (r % 64)
		t.z[i] &^= 1 << (r % 64)
	}
	t.setSign(r, false)
}

// nextRow returns the first row in [r, hi) whose bit is set in plane, or
// hi when there is none.
func nextRow(plane []uint64, r, hi int) int {
	for r < hi {
		if w := plane[r/64] >> (r % 64); w != 0 {
			return min(r+bits.TrailingZeros64(w), hi)
		}
		r = (r/64 + 1) * 64
	}
	return hi
}

// mulRowFrom sets row dst := row src * row dst with exact sign tracking.
// The product of two commuting-or-not Hermitian Paulis is i^k times a
// Pauli; tableau row products always land on an even k (a Hermitian
// result), which is asserted.
func (t *Tableau) mulRowFrom(dst, src int) {
	phase := 0 // exponent of i, mod 4
	if t.negated(dst) {
		phase += 2
	}
	if t.negated(src) {
		phase += 2
	}
	ws, bs := src/64, uint(src%64)
	wd, bd := dst/64, uint(dst%64)
	for q := 0; q < t.n; q++ {
		is, id := q*t.rw+ws, q*t.rw+wd
		xs, zs := t.x[is]>>bs&1, t.z[is]>>bs&1
		if xs|zs == 0 {
			continue
		}
		if xd, zd := t.x[id]>>bd&1, t.z[id]>>bd&1; xd|zd != 0 {
			k, _ := pauli.Mul(pauliFromXZ(xs, zs), pauliFromXZ(xd, zd))
			phase += k
		}
		t.x[id] ^= xs << bd
		t.z[id] ^= zs << bd
	}
	switch phase % 4 {
	case 0:
		t.setSign(dst, false)
	case 2:
		t.setSign(dst, true)
	default:
		panic(fmt.Sprintf("stab: non-Hermitian row product (phase i^%d)", phase%4))
	}
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
	n := t.n
	xq, _ := t.planes(q)
	if p := nextRow(xq, n, 2*n); p < 2*n {
		// Nondeterministic: record the anticommuting stabilizer for frame
		// redraws, then perform the standard CHP update. Destabilizer p-n
		// is skipped: it always anticommutes with stabilizer p (their
		// product is non-Hermitian) and is overwritten just below. Each
		// product changes only its own row, so the rows still to visit
		// read as before the update.
		flipX, flipZ = t.row(p)
		d := p - n
		for r := nextRow(xq, 0, 2*n); r < 2*n; r = nextRow(xq, r+1, 2*n) {
			if r != p && r != d {
				t.mulRowFrom(r, p)
			}
		}
		// Destabilizer p-n := old stabilizer p; stabilizer p := +/- Z_q.
		t.copyRow(d, p)
		t.clearRow(p)
		t.z[q*t.rw+p/64] |= 1 << (p % 64)
		bit = rng.Intn(2)
		t.setSign(p, bit == 1)
		return bit, false, flipX, flipZ
	}
	// Deterministic: accumulate stabilizer rows paired with destabilizers
	// that contain X_q into the scratch row; its sign is the outcome.
	sc := 2 * n
	t.clearRow(sc)
	for r := nextRow(xq, 0, n); r < n; r = nextRow(xq, r+1, n) {
		t.mulRowFrom(sc, r+n)
	}
	if t.negated(sc) {
		bit = 1
	}
	return bit, true, nil, nil
}

// stabRows is a row-major copy of a tableau's stabilizer generators:
// generator i's X and Z bits over the qubit axis are words
// [i*words, (i+1)*words) of x and z, and bit i of neg is its sign. Row
// products then run a word at a time instead of a bit per qubit. It also
// holds the scratch of expect, so one stabRows serves one goroutine.
type stabRows struct {
	t            *Tableau
	x, z, neg    []uint64
	anti         []uint64 // row words: each tableau row's anticommutation with P
	prodX, prodZ []uint64
}

// newStabRows copies t's stabilizer rows row-major in one pass over its
// qubit planes.
func newStabRows(t *Tableau) *stabRows {
	n, words := t.n, t.words
	s := &stabRows{
		t:     t,
		x:     make([]uint64, n*words),
		z:     make([]uint64, n*words),
		neg:   make([]uint64, words),
		anti:  make([]uint64, t.rw),
		prodX: make([]uint64, words),
		prodZ: make([]uint64, words),
	}
	for q := 0; q < n; q++ {
		w, bit := q/64, uint64(1)<<(q%64)
		xq, zq := t.planes(q)
		for r := nextRow(xq, n, 2*n); r < 2*n; r = nextRow(xq, r+1, 2*n) {
			s.x[(r-n)*words+w] |= bit
		}
		for r := nextRow(zq, n, 2*n); r < 2*n; r = nextRow(zq, r+1, 2*n) {
			s.z[(r-n)*words+w] |= bit
		}
	}
	for r := nextRow(t.sign, n, 2*n); r < 2*n; r = nextRow(t.sign, r+1, 2*n) {
		s.neg[(r-n)/64] |= 1 << ((r - n) % 64)
	}
	return s
}

// expect returns <psi| P |psi> for the packed Pauli (px, pz) with the
// given sign (true = -P): exactly +1, -1, or 0 on a stabilizer state.
func (s *stabRows) expect(px, pz []uint64, neg bool) float64 {
	t := s.t
	n := t.n
	// Bit r of anti is the symplectic product of row r with P, summed over
	// P's support: every row's anticommutation at once.
	anti := s.anti
	clear(anti)
	for w := range px {
		for sup := px[w] | pz[w]; sup != 0; sup &= sup - 1 {
			b := bits.TrailingZeros64(sup)
			q := w*64 + b
			if q >= n {
				break
			}
			xq, zq := t.planes(q)
			if pz[w]>>b&1 == 1 {
				for i := range anti {
					anti[i] ^= xq[i]
				}
			}
			if px[w]>>b&1 == 1 {
				for i := range anti {
					anti[i] ^= zq[i]
				}
			}
		}
	}
	if nextRow(anti, n, 2*n) < 2*n {
		return 0
	}
	// P commutes with the whole group, so it is +/- a product of
	// stabilizer generators: generator i participates iff destabilizer i
	// anticommutes with P.
	prodX, prodZ := s.prodX, s.prodZ
	clear(prodX)
	clear(prodZ)
	prodNeg := false
	for i := nextRow(anti, 0, n); i < n; i = nextRow(anti, i+1, n) {
		rowNeg := s.neg[i/64]>>(i%64)&1 == 1
		prodNeg = mulRow(prodX, prodZ, s.x[i*t.words:(i+1)*t.words], s.z[i*t.words:(i+1)*t.words], prodNeg, rowNeg)
	}
	for w := range prodX {
		if prodX[w] != px[w] || prodZ[w] != pz[w] {
			panic("stab: stabilizer-product reconstruction mismatch")
		}
	}
	if prodNeg != neg {
		return -1
	}
	return 1
}

// mulRow sets (x1, z1) := (x1, z1) * (x2, z2) for two packed Paulis with
// signs neg1 and neg2 and returns the product's sign. The phase is
// stim's bit-parallel log-i count (Gidney 2021): per qubit, a two-bit
// counter (c2, c1) adds +1 or -1 wherever the factors anticommute. Tableau
// row products always land on a Hermitian result, which is asserted.
func mulRow(x1, z1, x2, z2 []uint64, neg1, neg2 bool) bool {
	var c1, c2 uint64
	for w := range x1 {
		ox, oz := x1[w], z1[w]
		nx, nz := ox^x2[w], oz^z2[w]
		xz := ox & z2[w]
		anti := x2[w]&oz ^ xz
		c2 ^= (c1 ^ nx ^ nz ^ xz) & anti
		c1 ^= anti
		x1[w], z1[w] = nx, nz
	}
	k := bits.OnesCount64(c1) + 2*bits.OnesCount64(c2)
	if neg1 {
		k += 2
	}
	if neg2 {
		k += 2
	}
	if k%2 != 0 {
		panic(fmt.Sprintf("stab: non-Hermitian row product (phase i^%d)", k%4))
	}
	return k%4 == 2
}
