package twirl

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/linalg"
	"casq/internal/pauli"
	"casq/internal/sched"
	"casq/internal/sim"
)

func quietDev(n int) *device.Device {
	o := device.DefaultOptions()
	o.DeltaMax, o.QuasistaticSigma = 0, 0
	o.Err1Q, o.Err2Q, o.ReadoutErr = 0, 0, 0
	o.T1Min, o.T1Max, o.T2Factor = 1e12, 1e12, 2
	o.RotaryResidual = 0
	return device.NewLine("quiet", n, o)
}

// TestTableForECRAndCX: every supported kind has one table, the same
// pointer from any goroutine (stab memoizes its masks on it), and any
// other kind is an error.
func TestTableForECRAndCX(t *testing.T) {
	kinds := []gates.Kind{gates.ECR, gates.CX, gates.SWAP}
	first := map[gates.Kind]*pauli.CliffordTable{}
	for _, k := range kinds {
		tab, err := TableFor(k)
		if err != nil || tab == nil {
			t.Fatalf("TableFor(%s): %v, %v", k, tab, err)
		}
		first[k] = tab
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range kinds {
				if tab, err := TableFor(k); err != nil || tab != first[k] {
					t.Errorf("TableFor(%s) gave another table: %p, %v", k, tab, err)
				}
			}
		}()
	}
	wg.Wait()
	_, err := TableFor(gates.H)
	if want := "twirl: h is not a supported Clifford gate"; err == nil || err.Error() != want {
		t.Errorf("TableFor(h): error %v, want %q", err, want)
	}
}

// buildTestCircuit covers ECR, CX, RZZ and Ucan layers with idles.
func buildTestCircuit() *circuit.Circuit {
	c := circuit.New(4, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	prep.H(0).H(1).H(2).H(3)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	c.AddLayer(circuit.TwoQubitLayer).CX(2, 3)
	c.AddLayer(circuit.TwoQubitLayer).RZZ(1, 2, 0.7)
	c.AddLayer(circuit.TwoQubitLayer).Ucan(0, 1, 0.2, -0.3, 0.4)
	return c
}

func TestInstancePreservesLogic(t *testing.T) {
	// Noiseless execution of any twirl instance must match the original
	// circuit's final state up to global phase.
	dev := quietDev(4)
	base := buildTestCircuit()
	sched.Schedule(base, dev)
	r := sim.New(dev, sim.Ideal())
	want, err := r.FinalState(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 20; k++ {
		inst, err := Instance(base, GatesOnly, rng)
		if err != nil {
			t.Fatal(err)
		}
		sched.Schedule(inst, dev)
		got, err := r.FinalState(inst)
		if err != nil {
			t.Fatal(err)
		}
		if f := linalg.FidelityPure(got, want); f < 1-1e-9 {
			t.Fatalf("twirl instance %d changed the logic: fidelity %.9f", k, f)
		}
	}
}

func TestInstanceAllQubitsPreservesLogic(t *testing.T) {
	dev := quietDev(4)
	base := circuit.New(4, 0)
	base.AddLayer(circuit.OneQubitLayer).H(0).H(2)
	base.AddLayer(circuit.TwoQubitLayer).ECR(0, 1) // 2,3 idle -> twirled too
	sched.Schedule(base, dev)
	r := sim.New(dev, sim.Ideal())
	want, err := r.FinalState(base)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < 20; k++ {
		inst, err := Instance(base, AllQubits, rng)
		if err != nil {
			t.Fatal(err)
		}
		sched.Schedule(inst, dev)
		got, err := r.FinalState(inst)
		if err != nil {
			t.Fatal(err)
		}
		if f := linalg.FidelityPure(got, want); f < 1-1e-9 {
			t.Fatalf("all-qubit twirl instance %d broke logic: %.9f", k, f)
		}
	}
}

func TestInstanceStructure(t *testing.T) {
	base := buildTestCircuit()
	rng := rand.New(rand.NewSource(1))
	inst, err := Instance(base, GatesOnly, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every 2q layer gains a pre and post twirl layer.
	twirlLayers := 0
	for _, l := range inst.Layers {
		if l.Kind == circuit.TwirlLayer {
			twirlLayers++
			for _, in := range l.Instrs {
				if in.Tag != "twirl" {
					t.Error("twirl layer instruction missing tag")
				}
			}
		}
	}
	if twirlLayers != 8 {
		t.Errorf("expected 8 twirl layers (4 gates x pre/post), got %d", twirlLayers)
	}
}

// TestInstanceSharedOperandPanics twirls a layer whose two ECRs share
// qubit 1, built without Layer.Add. Whenever both gates draw a non-identity
// Pauli on that qubit for the same twirl layer, Instance panics with
// Layer.Add's message; otherwise it returns.
func TestInstanceSharedOperandPanics(t *testing.T) {
	c := circuit.New(3, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Instrs = []circuit.Instruction{
		{Gate: gates.ECR, Qubits: []int{0, 1}},
		{Gate: gates.ECR, Qubits: []int{1, 2}},
	}
	panics := 0
	for seed := int64(1); seed <= 20; seed++ {
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			if _, err := Instance(c, AllQubits, rand.New(rand.NewSource(seed))); err != nil {
				t.Fatal(err)
			}
			return ""
		}()
		switch msg {
		case "":
		case "circuit: qubit 1 used twice in one layer":
			panics++
		default:
			t.Fatalf("seed %d: panic %q", seed, msg)
		}
	}
	if panics == 0 {
		t.Error("no seed out of 20 panicked on the shared operand")
	}
}

func TestPropagateThroughLayer(t *testing.T) {
	// Propagating through an ECR layer must match the conjugation of the
	// full matrix.
	l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
	l.ECR(0, 1)
	in, _ := pauli.ParseString("XZ")
	out, err := PropagateThroughLayer(l, in)
	if err != nil {
		t.Fatal(err)
	}
	g := gates.Matrix2Q(gates.ECR)
	// Build full 2-qubit matrices with qubit0 low bit.
	lhs := linalg.MulChain(kron2(g), stringMatrix(in), linalg.Dagger(kron2(g)))
	if !linalg.ApproxEqual(lhs, stringMatrix(out), 1e-9) {
		t.Errorf("propagation mismatch: %v -> %v", in, out)
	}
}

// stringMatrix returns the full 2^n x 2^n matrix of s with qubit 0 as the
// least-significant tensor factor (matching linalg.Vector convention).
func stringMatrix(s pauli.String) linalg.Matrix {
	m := linalg.Identity(1)
	for i := len(s.Ops) - 1; i >= 0; i-- {
		m = linalg.Kron(m, s.Ops[i].Matrix())
	}
	ph := [4]complex128{1, 1i, -1, -1i}[((s.Phase%4)+4)%4]
	return linalg.Scale(ph, m)
}

// kron2 reorders the gate matrix from |first second> (first = high bit of
// the gate basis, acting on qubit 0) into the simulator's |q1 q0> layout.
func kron2(g linalg.Matrix) linalg.Matrix {
	// Gate operands are (q0, q1) = (first, second); state index is q1*2+q0.
	// Permute basis: gate index b = first*2 + second; state index
	// s = second*2 + first.
	p := linalg.NewMatrix(4)
	for first := 0; first < 2; first++ {
		for second := 0; second < 2; second++ {
			p.Set(second*2+first, first*2+second, 1)
		}
	}
	return linalg.MulChain(p, g, linalg.Dagger(p))
}

func TestPropagateIdleUnchanged(t *testing.T) {
	l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
	l.ECR(0, 1)
	in, _ := pauli.ParseString("IIZ")
	out, err := PropagateThroughLayer(l, in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ops[2] != pauli.Z || out.Ops[0] != pauli.I {
		t.Error("idle qubit operator must be unchanged")
	}
}
