package pauli

import (
	"testing"

	"casq/internal/gates"
	"casq/internal/linalg"
)

// phaseComplex converts a phase exponent to the complex unit i^k.
func phaseComplex(k int) complex128 {
	switch ((k % 4) + 4) % 4 {
	case 0:
		return 1
	case 1:
		return 1i
	case 2:
		return -1
	default:
		return -1i
	}
}

func TestMulTableMatchesMatrices(t *testing.T) {
	for p := I; p <= Z; p++ {
		for q := I; q <= Z; q++ {
			ph, r := Mul(p, q)
			got := linalg.Mul(p.Matrix(), q.Matrix())
			want := linalg.Scale(phaseComplex(ph), r.Matrix())
			if !linalg.ApproxEqual(got, want, 1e-12) {
				t.Errorf("%v*%v != i^%d %v", p, q, ph, r)
			}
		}
	}
}

func TestCommutes(t *testing.T) {
	cases := []struct {
		p, q Pauli
		want bool
	}{
		{I, X, true}, {X, X, true}, {X, Y, false}, {Y, Z, false}, {Z, Z, true}, {Z, I, true},
	}
	for _, c := range cases {
		if c.p.Commutes(c.q) != c.want {
			t.Errorf("Commutes(%v,%v) != %v", c.p, c.q, c.want)
		}
	}
}

func TestCliffordTableCNOT(t *testing.T) {
	tab, err := NewCliffordTable(gates.Matrix2Q(gates.CX))
	if err != nil {
		t.Fatal(err)
	}
	// Known CNOT conjugations (control = first operand): XI -> XX, IX -> IX,
	// ZI -> ZI, IZ -> ZZ.
	cases := []struct {
		in, out Pair
		sign    int
	}{
		{Pair{X, I}, Pair{X, X}, 1},
		{Pair{I, X}, Pair{I, X}, 1},
		{Pair{Z, I}, Pair{Z, I}, 1},
		{Pair{I, Z}, Pair{Z, Z}, 1},
		{Pair{Y, I}, Pair{Y, X}, 1},
		{Pair{I, Y}, Pair{Z, Y}, 1},
	}
	for _, c := range cases {
		got := tab.Conjugate(c.in)
		if got.Out != c.out || got.Sign != c.sign {
			t.Errorf("CNOT conj %v%v -> %v%v sign %d, want %v%v sign %d",
				c.in.P0, c.in.P1, got.Out.P0, got.Out.P1, got.Sign, c.out.P0, c.out.P1, c.sign)
		}
	}
}

func TestCliffordTableECRValid(t *testing.T) {
	tab, err := NewCliffordTable(gates.Matrix2Q(gates.ECR))
	if err != nil {
		t.Fatalf("ECR must be Clifford: %v", err)
	}
	// Verify every entry numerically: G (P0 x P1) G^dag = sign (Q0 x Q1).
	g := gates.Matrix2Q(gates.ECR)
	gd := linalg.Dagger(g)
	for p0 := I; p0 <= Z; p0++ {
		for p1 := I; p1 <= Z; p1++ {
			c := tab.Conjugate(Pair{p0, p1})
			in := linalg.Kron(p0.Matrix(), p1.Matrix())
			lhs := linalg.MulChain(g, in, gd)
			rhs := linalg.Scale(complex(float64(c.Sign), 0),
				linalg.Kron(c.Out.P0.Matrix(), c.Out.P1.Matrix()))
			if !linalg.ApproxEqual(lhs, rhs, 1e-9) {
				t.Errorf("ECR table wrong for %v%v", p0, p1)
			}
		}
	}
}

func TestInvertForTwirlIdentity(t *testing.T) {
	// (Q0 x Q1) G (P0 x P1) must equal +/- G for every pair — the twirl
	// invariance relation.
	for _, kind := range []gates.Kind{gates.CX, gates.ECR} {
		g := gates.Matrix2Q(kind)
		tab, err := NewCliffordTable(g)
		if err != nil {
			t.Fatal(err)
		}
		for p0 := I; p0 <= Z; p0++ {
			for p1 := I; p1 <= Z; p1++ {
				q, sign := tab.InvertFor(Pair{p0, p1})
				pre := linalg.Kron(p0.Matrix(), p1.Matrix())
				post := linalg.Kron(q.P0.Matrix(), q.P1.Matrix())
				lhs := linalg.MulChain(post, g, pre)
				rhs := linalg.Scale(complex(float64(sign), 0), g)
				if !linalg.ApproxEqual(lhs, rhs, 1e-9) {
					t.Errorf("%s twirl identity fails for %v%v", kind, p0, p1)
				}
			}
		}
	}
}

func TestNonCliffordRejected(t *testing.T) {
	if _, err := NewCliffordTable(gates.Matrix2Q(gates.Ucan, 0.3, 0.2, 0.1)); err == nil {
		t.Error("generic Ucan should not produce a Clifford table")
	}
}

func TestExpectationOnState(t *testing.T) {
	// <+|X|+> = 1, <0|Z|0> = 1, <0|X|0> = 0.
	v := linalg.NewVector(2)
	v.Apply1Q(gates.Matrix1Q(gates.H), 0)
	x0, _ := ParseString("XI")
	z1, _ := ParseString("IZ")
	x1, _ := ParseString("IX")
	if got := x0.ExpectationOnState(v); got < 0.999 {
		t.Errorf("<X0> = %v", got)
	}
	if got := z1.ExpectationOnState(v); got < 0.999 {
		t.Errorf("<Z1> = %v", got)
	}
	if got := x1.ExpectationOnState(v); got > 1e-9 {
		t.Errorf("<X1> = %v", got)
	}
}
