package gates

import (
	"math"
	"testing"

	"casq/internal/linalg"
)

func TestAllOneQubitGatesUnitary(t *testing.T) {
	kinds := []Kind{ID, XGate, YGate, ZGate, H, S, Sdg, SX, SXdg, XDD}
	for _, k := range kinds {
		if !linalg.IsUnitary(Matrix1Q(k), 1e-12) {
			t.Errorf("%s is not unitary", k)
		}
	}
	for _, theta := range []float64{0, 0.3, math.Pi / 2, math.Pi, -1.7} {
		for _, k := range []Kind{RZ, RX, RY} {
			if !linalg.IsUnitary(Matrix1Q(k, theta), 1e-12) {
				t.Errorf("%s(%g) is not unitary", k, theta)
			}
		}
	}
}

func TestAllTwoQubitGatesUnitary(t *testing.T) {
	if !linalg.IsUnitary(Matrix2Q(CX), 1e-12) {
		t.Error("CX not unitary")
	}
	if !linalg.IsUnitary(Matrix2Q(ECR), 1e-12) {
		t.Error("ECR not unitary")
	}
	if !linalg.IsUnitary(Matrix2Q(SWAP), 1e-12) {
		t.Error("SWAP not unitary")
	}
	for _, theta := range []float64{0.1, -0.5, math.Pi / 2} {
		if !linalg.IsUnitary(Matrix2Q(RZZ, theta), 1e-12) {
			t.Errorf("RZZ(%g) not unitary", theta)
		}
		if !linalg.IsUnitary(Matrix2Q(ZX, theta), 1e-12) {
			t.Errorf("ZX(%g) not unitary", theta)
		}
	}
	if !linalg.IsUnitary(Matrix2Q(Ucan, 0.3, -0.2, 0.9), 1e-12) {
		t.Error("Ucan not unitary")
	}
}

func TestSXSquaredIsX(t *testing.T) {
	got := linalg.Mul(Matrix1Q(SX), Matrix1Q(SX))
	if !linalg.EqualUpToPhase(got, Matrix1Q(XGate), 1e-12) {
		t.Errorf("SX^2 != X:\n%v", got)
	}
}

func TestECRIsEchoedSequence(t *testing.T) {
	// ECR must equal ZX(-pi/4) . X(ctrl) . ZX(pi/4), the physical pulse
	// sequence executed by the simulator.
	xc := linalg.Kron(Matrix1Q(XGate), linalg.Identity(2))
	seq := linalg.MulChain(ZXMatrix(-math.Pi/4), xc, ZXMatrix(math.Pi/4))
	if !linalg.ApproxEqual(ECRMatrix(), seq, 1e-12) {
		t.Errorf("ECR != echoed sequence:\n%v\nvs\n%v", ECRMatrix(), seq)
	}
}

func TestECRSelfInverse(t *testing.T) {
	sq := linalg.Mul(ECRMatrix(), ECRMatrix())
	if !linalg.EqualUpToPhase(sq, linalg.Identity(4), 1e-12) {
		t.Errorf("ECR^2 != I:\n%v", sq)
	}
}

func TestCNOTFromECR(t *testing.T) {
	// CNOT = (Rz(-pi/2) X on ctrl) x (Rx(-pi/2) on tgt) . ECR, up to global
	// phase: the echoed-cross-resonance dressing of a native CNOT.
	ctrl := linalg.Mul(Matrix1Q(RZ, -math.Pi/2), Matrix1Q(XGate))
	tgt := Matrix1Q(RX, -math.Pi/2)
	dress := linalg.Kron(ctrl, tgt)
	got := linalg.Mul(dress, ECRMatrix())
	if !linalg.EqualUpToPhase(got, Matrix2Q(CX), 1e-12) {
		t.Errorf("CNOT != dressing . ECR:\n%v", got)
	}
}

func TestUcanFactorizes(t *testing.T) {
	// XX, YY, ZZ commute, so Ucan(a,0,0)*Ucan(0,b,0)*Ucan(0,0,g) = Ucan(a,b,g).
	a, b, g := 0.37, -0.21, 0.85
	lhs := UcanMatrix(a, b, g)
	rhs := linalg.MulChain(UcanMatrix(a, 0, 0), UcanMatrix(0, b, 0), UcanMatrix(0, 0, g))
	if !linalg.ApproxEqual(lhs, rhs, 1e-12) {
		t.Error("Ucan does not factorize over commuting terms")
	}
}

func TestUcanGammaOnlyIsRzz(t *testing.T) {
	// Ucan(0,0,g) = exp(i g ZZ) = Rzz(-2g).
	g := 0.42
	if !linalg.ApproxEqual(UcanMatrix(0, 0, g), Matrix2Q(RZZ, -2*g), 1e-12) {
		t.Error("Ucan(0,0,g) != Rzz(-2g)")
	}
}

func TestAbsorbRzzIntoUcan(t *testing.T) {
	// Ucan(a,b,g+d/2) must equal Ucan(a,b,g) . Rzz(-d), the compensation of
	// an Rzz(d) error preceding the gate.
	a, b, g, d := 0.3, 0.7, -0.4, 0.23
	na, nb, ng := AbsorbRzzIntoUcan(a, b, g, d)
	lhs := UcanMatrix(na, nb, ng)
	rhs := linalg.Mul(UcanMatrix(a, b, g), Matrix2Q(RZZ, -d))
	if !linalg.ApproxEqual(lhs, rhs, 1e-12) {
		t.Error("AbsorbRzzIntoUcan identity violated")
	}
	// And the compensated product cancels the error exactly.
	tot := linalg.Mul(lhs, Matrix2Q(RZZ, d))
	if !linalg.ApproxEqual(tot, UcanMatrix(a, b, g), 1e-12) {
		t.Error("compensation does not cancel the error")
	}
}

func TestCXCommutationWithRzz(t *testing.T) {
	// CX . Rzz(t) = (I x Rz(t)) . CX — the rule CA-EC uses to convert a
	// pending ZZ into a free virtual Rz on the target.
	theta := 0.61
	lhs := linalg.Mul(Matrix2Q(CX), Matrix2Q(RZZ, theta))
	rz := linalg.Kron(linalg.Identity(2), Matrix1Q(RZ, theta))
	rhs := linalg.Mul(rz, Matrix2Q(CX))
	if !linalg.ApproxEqual(lhs, rhs, 1e-12) {
		t.Error("CX/Rzz commutation rule violated")
	}
}

func TestZXZXZIdentity(t *testing.T) {
	// The native sequence Rz(phi+pi) SX Rz(theta+pi) SX Rz(lambda) must
	// implement U3(theta, phi, lambda) up to global phase (paper Eq. 4).
	for _, c := range [][3]float64{
		{0.3, 0.8, -1.1}, {math.Pi / 2, 0, math.Pi}, {1.9, -0.4, 0.2}, {0, 0, 0},
	} {
		theta, phi, lambda := c[0], c[1], c[2]
		native := linalg.MulChain(
			Matrix1Q(RZ, phi+math.Pi),
			Matrix1Q(SX),
			Matrix1Q(RZ, theta+math.Pi),
			Matrix1Q(SX),
			Matrix1Q(RZ, lambda),
		)
		if !linalg.EqualUpToPhase(native, U3Matrix(theta, phi, lambda), 1e-9) {
			t.Errorf("ZXZXZ(%v) does not reproduce U3", c)
		}
	}
}

func TestRZZDiagonalForm(t *testing.T) {
	theta := 0.81
	m := Matrix2Q(RZZ, theta)
	// Rzz = exp(-i theta/2 Z x Z): diag(e^-, e^+, e^+, e^-).
	zz := linalg.Kron(Matrix1Q(ZGate), Matrix1Q(ZGate))
	want := linalg.NewMatrix(4)
	for i := 0; i < 4; i++ {
		z := real(zz.At(i, i))
		want.Set(i, i, complex(math.Cos(-theta/2*z), math.Sin(-theta/2*z)))
	}
	if !linalg.ApproxEqual(m, want, 1e-12) {
		t.Error("RZZ diagonal mismatch")
	}
}

func TestNumQubits(t *testing.T) {
	if NumQubits(ECR) != 2 || NumQubits(H) != 1 || NumQubits(Measure) != 0 {
		t.Error("NumQubits misclassifies kinds")
	}
}
