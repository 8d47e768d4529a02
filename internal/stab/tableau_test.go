package stab

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"casq/internal/gates"
	"casq/internal/linalg"
	"casq/internal/pauli"
)

// Expect returns the expectation of a pauli.String (phase must be real,
// i.e. Phase in {0, 2}): the tests' entry to the row-major product that
// signs the engine's observables.
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
	return newStabRows(t).expect(px, pz, ph == 2), nil
}

// randomCliffordStep applies one random Clifford gate to both the tableau
// and the statevector.
func randomCliffordStep(t *testing.T, rng *rand.Rand, tab *Tableau, psi linalg.Vector, n int) {
	t.Helper()
	switch rng.Intn(3) {
	case 0: // generic 1q Clifford via table
		kinds := []gates.Kind{gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg}
		g := kinds[rng.Intn(len(kinds))]
		q := rng.Intn(n)
		tbl := clifford1For(g, nil)
		if tbl == nil {
			t.Fatalf("%s should be Clifford", g)
		}
		tab.ApplyClifford1(q, tbl)
		psi.Apply1Q(gates.Matrix1Q(g), q)
	case 1: // Pauli gate
		ps := []pauli.Pauli{pauli.X, pauli.Y, pauli.Z}
		p := ps[rng.Intn(3)]
		q := rng.Intn(n)
		tab.ApplyPauli(q, p)
		psi.Apply1Q(p.Matrix(), q)
	default: // 2q Clifford
		kinds := []gates.Kind{gates.ECR, gates.CX, gates.SWAP}
		g := kinds[rng.Intn(len(kinds))]
		q0 := rng.Intn(n)
		q1 := rng.Intn(n)
		for q1 == q0 {
			q1 = rng.Intn(n)
		}
		tbl := clifford2For(g, nil)
		if tbl == nil {
			t.Fatalf("%s should be Clifford", g)
		}
		tab.ApplyClifford2(q0, q1, tbl)
		psi.Apply2Q(gates.Matrix2Q(g), q0, q1)
	}
}

// TestTableauExpectationsMatchStatevector drives random Clifford circuits
// through the bit-packed tableau and an exact statevector in lockstep and
// compares every Pauli expectation on the final state.
func TestTableauExpectationsMatchStatevector(t *testing.T) {
	const n = 4
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		tab := NewTableau(n)
		psi := linalg.NewVector(n)
		psi[0] = 1
		steps := 3 + rng.Intn(12)
		for s := 0; s < steps; s++ {
			randomCliffordStep(t, rng, tab, psi, n)
		}
		// Exhaustive Pauli strings on 4 qubits (256 of them).
		idx := make([]pauli.Pauli, n)
		for {
			s := pauli.String{Ops: append([]pauli.Pauli(nil), idx...)}
			got, err := tab.Expect(s)
			if err != nil {
				t.Fatal(err)
			}
			want := s.ExpectationOnState(psi)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d: <%v>: tableau %.3f, statevector %.3f", trial, s, got, want)
			}
			i := 0
			for ; i < n; i++ {
				if idx[i] < pauli.Z {
					idx[i]++
					break
				}
				idx[i] = pauli.I
			}
			if i == n {
				break
			}
		}
	}
}

// TestTableauMeasureBellCorrelation checks the CHP measurement update:
// measuring one half of a Bell pair is random, the other half then
// deterministic and equal, and the recorded branch-flip stabilizer
// anticommutes with Z on the measured qubit.
func TestTableauMeasureBellCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		tab := NewTableau(2)
		tab.ApplyClifford1(0, clifford1For(gates.H, nil))
		tab.ApplyClifford2(0, 1, clifford2For(gates.CX, nil))
		b0, det, fx, fz := tab.MeasureZ(0, rng)
		if det {
			t.Fatal("Bell measurement should be nondeterministic")
		}
		if fx == nil || fz == nil {
			t.Fatal("nondeterministic measurement must record a flip stabilizer")
		}
		// The flip stabilizer must anticommute with Z_0.
		pz := []uint64{1}
		px := []uint64{0}
		var par uint64
		par ^= fx[0] & pz[0]
		par ^= fz[0] & px[0]
		if !parity64(par) {
			t.Fatal("flip stabilizer commutes with Z0")
		}
		b1, det1, _, _ := tab.MeasureZ(1, rng)
		if !det1 {
			t.Fatal("second Bell measurement should be deterministic")
		}
		if b0 != b1 {
			t.Fatalf("Bell outcomes disagree: %d vs %d", b0, b1)
		}
	}
}

// TestTableauDeterministicMeasure pins deterministic outcomes: |0>, X|0>,
// and a +1 X eigenstate measured after H.
func TestTableauDeterministicMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := NewTableau(1)
	if b, det, _, _ := tab.MeasureZ(0, rng); !det || b != 0 {
		t.Fatalf("|0> measurement: got %d det=%v", b, det)
	}
	tab.ApplyPauli(0, pauli.X)
	if b, det, _, _ := tab.MeasureZ(0, rng); !det || b != 1 {
		t.Fatalf("X|0> measurement: got %d det=%v", b, det)
	}
	// H|1> is |->: X expectation -1, Z expectation 0.
	tab.ApplyClifford1(0, clifford1For(gates.H, nil))
	sX, _ := pauli.ParseString("X")
	if v, err := tab.Expect(sX); err != nil || v != -1 {
		t.Fatalf("<X> on |->: %v err=%v", v, err)
	}
	sZ, _ := pauli.ParseString("Z")
	if v, err := tab.Expect(sZ); err != nil || v != 0 {
		t.Fatalf("<Z> on |->: %v err=%v", v, err)
	}
}

// TestSplitQuarter pins the Clifford/residual decomposition of virtual-Z
// angles.
func TestSplitQuarter(t *testing.T) {
	cases := []struct {
		theta float64
		k     int
		delta float64
	}{
		{0, 0, 0},
		{math.Pi / 2, 1, 0},
		{math.Pi, 2, 0},
		{-math.Pi / 2, 3, 0},
		{3 * math.Pi / 2, 3, 0},
		{2 * math.Pi, 0, 0},
		{0.01, 0, 0.01},
		{math.Pi/2 + 0.02, 1, 0.02},
		{-0.03, 0, -0.03},
	}
	for _, c := range cases {
		k, d := splitQuarter(c.theta)
		if k != c.k || math.Abs(d-c.delta) > 1e-12 {
			t.Fatalf("splitQuarter(%g) = (%d, %g), want (%d, %g)", c.theta, k, d, c.k, c.delta)
		}
	}
}

// tabStep is one gate of a Clifford circuit driven both through the
// tableau and through independent Pauli propagation: a one-qubit table
// (c1), a Pauli gate (p), or a two-qubit table on (q0, q1) (c2).
type tabStep struct {
	c1     *pauli.Clifford1Q
	p      pauli.Pauli
	c2     *pauli.CliffordTable
	q0, q1 int
}

// propKinds is the size of propStep's gate alphabet: H, S, Sdg, SX, SXdg
// as tables, X, Y, Z as Pauli gates, ECR, CX, SWAP as two-qubit tables.
const propKinds = 11

// propStep decodes gate k of the alphabet on qubits a and b (reduced mod
// n, b moved off a). It reports false for a two-qubit gate on one qubit.
func propStep(k, a, b, n int) (tabStep, bool) {
	s := tabStep{q0: a % n, q1: b % n}
	switch {
	case k < 5:
		s.c1 = clifford1For([]gates.Kind{gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg}[k], nil)
	case k < 8:
		s.p = []pauli.Pauli{pauli.X, pauli.Y, pauli.Z}[k-5]
	default:
		if n < 2 {
			return s, false
		}
		if s.q1 == s.q0 {
			s.q1 = (s.q0 + 1) % n
		}
		s.c2 = clifford2For([]gates.Kind{gates.ECR, gates.CX, gates.SWAP}[k-8], nil)
	}
	return s, true
}

// expectQubitMajor is the reference for stabRows.expect: it multiplies
// the selected stabilizer rows into the tableau's scratch row in place,
// one bit per qubit per row (mulRowFrom), and reads the product back with
// row.
func expectQubitMajor(t *Tableau, px, pz []uint64, neg bool) float64 {
	anti := make([]uint64, t.rw)
	for q := 0; q < t.n; q++ {
		xq, zq := t.planes(q)
		for i := range anti {
			if pz[q/64]>>(q%64)&1 == 1 {
				anti[i] ^= xq[i]
			}
			if px[q/64]>>(q%64)&1 == 1 {
				anti[i] ^= zq[i]
			}
		}
	}
	n := t.n
	if nextRow(anti, n, 2*n) < 2*n {
		return 0
	}
	sc := 2 * n
	t.clearRow(sc)
	for r := nextRow(anti, 0, n); r < n; r = nextRow(anti, r+1, n) {
		t.mulRowFrom(sc, r+n)
	}
	rx, rz := t.row(sc)
	for w := range rx {
		if rx[w] != px[w] || rz[w] != pz[w] {
			panic("stab: stabilizer-product reconstruction mismatch")
		}
	}
	if t.negated(sc) != neg {
		return -1
	}
	return 1
}

// checkPropagation applies steps to NewTableau(n) and, for each subset S,
// conjugates +Z_S forward through the same steps with the pauli tables,
// tracking the sign. Z_S stabilizes |0...0>, so its image stabilizes the
// final state: the tableau must give it expectation exactly +1 and its
// negation exactly -1, and the qubit-major reference product must agree
// on both.
func checkPropagation(t testing.TB, n int, steps []tabStep, subsets [][]bool) {
	t.Helper()
	tab := NewTableau(n)
	for _, s := range steps {
		switch {
		case s.c1 != nil:
			tab.ApplyClifford1(s.q0, s.c1)
		case s.c2 != nil:
			tab.ApplyClifford2(s.q0, s.q1, s.c2)
		default:
			tab.ApplyPauli(s.q0, s.p)
		}
	}
	for _, S := range subsets {
		img := pauli.NewString(n)
		for q, in := range S {
			if in {
				img.Ops[q] = pauli.Z
			}
		}
		for _, s := range steps {
			neg := false
			switch {
			case s.c1 != nil:
				c := s.c1.Conjugate(img.Ops[s.q0])
				img.Ops[s.q0], neg = c.Out, c.Sign < 0
			case s.c2 != nil:
				c := s.c2.Conjugate(pauli.Pair{P0: img.Ops[s.q0], P1: img.Ops[s.q1]})
				img.Ops[s.q0], img.Ops[s.q1], neg = c.Out.P0, c.Out.P1, c.Sign < 0
			default:
				neg = !img.Ops[s.q0].Commutes(s.p)
			}
			if neg {
				img.Phase = (img.Phase + 2) % 4
			}
		}
		px, pz := make([]uint64, tab.words), make([]uint64, tab.words)
		for q, p := range img.Ops {
			xb, zb := xzFromPauli(p)
			px[q/64] |= xb << (q % 64)
			pz[q/64] |= zb << (q % 64)
		}
		negImg := pauli.String{Ops: img.Ops, Phase: (img.Phase + 2) % 4}
		for _, c := range []struct {
			s    pauli.String
			want float64
		}{{img, 1}, {negImg, -1}} {
			got, err := tab.Expect(c.s)
			if err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Fatalf("n=%d, %d gates: <%v> = %v, want exactly %v", n, len(steps), c.s, got, c.want)
			}
			if ref := expectQubitMajor(tab, px, pz, c.s.Phase == 2); ref != got {
				t.Fatalf("n=%d, %d gates: <%v> = %v, qubit-major product %v", n, len(steps), c.s, got, ref)
			}
		}
	}
}

// TestTableauMatchesPropagation runs checkPropagation on seeded random
// circuits at qubit counts whose 2n+1 tableau rows fill one, two, three
// and four 64-bit words, so every row-word boundary is crossed (the
// statevector test's n = 4 fits one word).
func TestTableauMatchesPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{31, 32, 33, 63, 64, 65, 127} {
		for trial := 0; trial < 3; trial++ {
			var steps []tabStep
			for len(steps) < 6*n {
				if s, ok := propStep(rng.Intn(propKinds), rng.Intn(n), rng.Intn(n), n); ok {
					steps = append(steps, s)
				}
			}
			subsets := make([][]bool, 12)
			for i := range subsets {
				subsets[i] = make([]bool, n)
				density := rng.Float64()
				for q := range subsets[i] {
					subsets[i][q] = rng.Float64() < density
				}
			}
			checkPropagation(t, n, steps, subsets)
		}
	}
}
