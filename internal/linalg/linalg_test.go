package linalg

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestIdentityAndMul(t *testing.T) {
	id := Identity(4)
	m := FromRows([][]complex128{
		{1, 2, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 3, 1i},
		{0, 0, 0, 1},
	})
	if !ApproxEqual(Mul(id, m), m, 1e-14) || !ApproxEqual(Mul(m, id), m, 1e-14) {
		t.Error("identity is not neutral under Mul")
	}
}

func TestMulChainAssociativity(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 1i}, {-1i, 0}})
	c := FromRows([][]complex128{{2, 0}, {0, 0.5}})
	lhs := Mul(Mul(a, b), c)
	rhs := Mul(a, Mul(b, c))
	if !ApproxEqual(lhs, rhs, 1e-12) {
		t.Error("matrix multiplication is not associative")
	}
	if !ApproxEqual(MulChain(a, b, c), lhs, 1e-12) {
		t.Error("MulChain mismatch")
	}
}

func TestKronDimensionsAndValues(t *testing.T) {
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	z := FromRows([][]complex128{{1, 0}, {0, -1}})
	k := Kron(x, z)
	if k.N != 4 {
		t.Fatalf("Kron dimension %d, want 4", k.N)
	}
	// (X kron Z)[0][2] = x01*z00 = 1.
	if k.At(0, 2) != 1 || k.At(1, 3) != -1 || k.At(2, 0) != 1 || k.At(3, 1) != -1 {
		t.Errorf("Kron values wrong:\n%v", k)
	}
}

func TestDaggerInvolution(t *testing.T) {
	m := FromRows([][]complex128{{1 + 2i, 3}, {4i, 5 - 1i}})
	if !ApproxEqual(Dagger(Dagger(m)), m, 1e-14) {
		t.Error("dagger is not an involution")
	}
	if Dagger(m).At(0, 1) != -4i {
		t.Error("dagger does not conjugate-transpose")
	}
}

func TestIsUnitary(t *testing.T) {
	h := complex(1/math.Sqrt2, 0)
	had := FromRows([][]complex128{{h, h}, {h, -h}})
	if !IsUnitary(had, 1e-12) {
		t.Error("Hadamard should be unitary")
	}
	if IsUnitary(FromRows([][]complex128{{1, 1}, {0, 1}}), 1e-12) {
		t.Error("shear should not be unitary")
	}
}

func TestEqualUpToPhase(t *testing.T) {
	m := FromRows([][]complex128{{0, 1}, {1, 0}})
	ph := cmplx.Exp(complex(0, 1.234))
	if !EqualUpToPhase(Scale(ph, m), m, 1e-12) {
		t.Error("phase-equivalent matrices not detected")
	}
	z := FromRows([][]complex128{{1, 0}, {0, -1}})
	if EqualUpToPhase(m, z, 1e-12) {
		t.Error("X and Z should not be phase-equivalent")
	}
}

func TestVectorNormalizeAndInner(t *testing.T) {
	v := Vector{3, 4i}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Error("normalize failed")
	}
	w := Vector{1, 0}
	ip := Inner(w, v)
	if math.Abs(real(ip)-0.6) > 1e-12 {
		t.Errorf("inner product %v", ip)
	}
}

func TestApply1QOnBasis(t *testing.T) {
	v := NewVector(2) // |00>
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	v.Apply1Q(x, 1)
	// should now be |10> = index 2 (qubit1 is bit 1)
	if v[2] != 1 || v[0] != 0 {
		t.Errorf("Apply1Q moved to wrong basis state: %v", v)
	}
}

func TestApply2QMatchesKron(t *testing.T) {
	// Applying u on (q1=1, q0=0) must equal the full Kron matrix action.
	u := FromRows([][]complex128{
		{0, 1, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, -1i},
		{0, 0, 1i, 0},
	})
	v := NewVector(2)
	v[0] = 0.5
	v[1] = 0.5
	v[2] = 0.5
	v[3] = 0.5
	got := v.Copy()
	got.Apply2Q(u, 1, 0)
	// Build the same by direct matrix multiplication: index = q1*2 + q0,
	// which matches the vector's bit layout (q1 = bit1, q0 = bit0).
	want := make(Vector, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want[i] += u.At(i, j) * v[j]
		}
	}
	for i := range want {
		if cmplx.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("Apply2Q mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestProbCollapseExpectZ(t *testing.T) {
	v := NewVector(1)
	h := complex(1/math.Sqrt2, 0)
	v.Apply1Q(FromRows([][]complex128{{h, h}, {h, -h}}), 0)
	if math.Abs(v.Prob(0, 1)-0.5) > 1e-12 {
		t.Error("|+> should have P(1) = 0.5")
	}
	v.Collapse(0, 1)
	if math.Abs(v.Prob(0, 1)-1) > 1e-12 {
		t.Error("collapse to 1 failed")
	}
}

func TestUnitaryPreservesNormProperty(t *testing.T) {
	// Random diagonal-phase + X mixing circuits preserve the norm.
	f := func(seedA, seedB int64) bool {
		phase := float64(seedA%1000) / 1000 * 2 * math.Pi
		rz := FromRows([][]complex128{
			{cmplx.Exp(complex(0, -phase/2)), 0},
			{0, cmplx.Exp(complex(0, phase/2))},
		})
		x := FromRows([][]complex128{{0, 1}, {1, 0}})
		v := NewVector(3)
		v.Apply1Q(x, int(uint(seedB)%3))
		v.Apply1Q(rz, int(uint(seedA)%3))
		v.Apply1Q(x, 0)
		return math.Abs(v.Norm()-1) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFidelityPure(t *testing.T) {
	a := NewVector(1)
	b := NewVector(1)
	if math.Abs(FidelityPure(a, b)-1) > 1e-12 {
		t.Error("identical states should have fidelity 1")
	}
	b[0], b[1] = 0, 1
	if FidelityPure(a, b) > 1e-12 {
		t.Error("orthogonal states should have fidelity 0")
	}
}
