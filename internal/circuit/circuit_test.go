package circuit

import (
	"fmt"
	"strings"
	"testing"

	"casq/internal/gates"
)

func TestBuilderAndValidate(t *testing.T) {
	c := New(3, 1)
	c.AddLayer(OneQubitLayer).H(0).X(1).RZ(2, 0.5)
	c.AddLayer(TwoQubitLayer).ECR(0, 1)
	c.AddLayer(MeasureLayer).Measure(2, 0)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 3 {
		t.Errorf("depth %d", c.Depth())
	}
	if c.CountGates(gates.ECR) != 1 || c.CountGates(gates.H) != 1 {
		t.Error("gate counts wrong")
	}
}

func TestQubitReusePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on qubit reuse")
		}
	}()
	l := &Layer{Kind: OneQubitLayer}
	l.H(0)
	l.X(0)
}

// TestLayerAddRule pins which appends Layer.Add accepts and the exact
// panic of each one it rejects. The disjointness check runs first, skips
// dd-tagged pulses and barriers, and ignores delays already in the layer,
// but a delay added on a busy qubit is rejected (Validate, unlike Add,
// lets delays share a qubit).
func TestLayerAddRule(t *testing.T) {
	one := func(g gates.Kind, q int) Instruction { return Instruction{Gate: g, Qubits: []int{q}} }
	two := func(g gates.Kind, a, b int) Instruction { return Instruction{Gate: g, Qubits: []int{a, b}} }
	ddX := Instruction{Gate: gates.XDD, Qubits: []int{0}, Tag: "dd", Time: 100}
	dd2 := Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 100}
	delay := Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{100}}
	cases := []struct {
		name  string
		kind  LayerKind
		prior []Instruction
		add   Instruction
		panic string // "" when the append is accepted
	}{
		{"reuse in 1q layer", OneQubitLayer, []Instruction{one(gates.H, 0)}, one(gates.XGate, 0),
			"circuit: qubit 0 used twice in one layer"},
		{"gates share a target", TwoQubitLayer, []Instruction{two(gates.ECR, 0, 1)}, two(gates.ECR, 2, 1),
			"circuit: qubit 1 used twice in one layer"},
		{"disjoint gates", TwoQubitLayer, []Instruction{two(gates.ECR, 0, 1)}, two(gates.ECR, 2, 3), ""},
		{"dd pulse on a gate qubit", TwoQubitLayer, []Instruction{two(gates.ECR, 0, 1)}, ddX, ""},
		{"dd pulses repeat", TwoQubitLayer, []Instruction{two(gates.ECR, 0, 1), dd2}, dd2, ""},
		{"gate after a dd pulse", TwoQubitLayer, []Instruction{dd2}, two(gates.ECR, 2, 3),
			"circuit: qubit 2 used twice in one layer"},
		{"gate after a delay", OneQubitLayer, []Instruction{delay}, one(gates.H, 0), ""},
		{"delay after a delay", OneQubitLayer, []Instruction{delay}, delay, ""},
		{"delay after a gate", OneQubitLayer, []Instruction{one(gates.H, 0)}, delay,
			"circuit: qubit 0 used twice in one layer"},
		{"delay beside a gate", TwoQubitLayer, []Instruction{two(gates.ECR, 0, 1)},
			Instruction{Gate: gates.Delay, Qubits: []int{2}, Params: []float64{100}}, ""},
		{"measure twice", MeasureLayer, []Instruction{{Gate: gates.Measure, Qubits: []int{0}}},
			Instruction{Gate: gates.Measure, Qubits: []int{0}, CBit: 1}, "circuit: qubit 0 used twice in one layer"},
		{"reuse before arity", OneQubitLayer, []Instruction{one(gates.H, 0)}, one(gates.ECR, 0),
			"circuit: qubit 0 used twice in one layer"},
		{"wrong arity", TwoQubitLayer, nil, one(gates.ECR, 0), "circuit: ecr expects 2 qubits, got 1"},
		{"2q gate in 1q layer", OneQubitLayer, nil, two(gates.ECR, 0, 1), "circuit: ecr not allowed in 1q layer"},
		{"2q gate in twirl layer", TwirlLayer, nil, two(gates.CX, 0, 1), "circuit: cx not allowed in twirl layer"},
		{"1q gate in 2q layer", TwoQubitLayer, nil, one(gates.H, 0), ""},
		{"measure in 2q layer", TwoQubitLayer, nil, one(gates.Measure, 0), "circuit: measure not allowed in 2q layer"},
		{"2q gate in measure layer", MeasureLayer, nil, two(gates.ECR, 0, 1), "circuit: ecr not allowed in measure layer"},
		{"barrier on a busy qubit", MeasureLayer, []Instruction{one(gates.Measure, 0)}, one(gates.Barrier, 0),
			"circuit: barrier not allowed in measure layer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := &Layer{Kind: c.kind}
			for _, in := range c.prior {
				l.Add(in)
			}
			got := func() (msg string) {
				defer func() {
					if r := recover(); r != nil {
						msg = fmt.Sprint(r)
					}
				}()
				l.Add(c.add)
				return ""
			}()
			if got != c.panic {
				t.Fatalf("Add panic = %q, want %q", got, c.panic)
			}
			want := len(c.prior)
			if c.panic == "" {
				want++
			}
			if len(l.Instrs) != want {
				t.Fatalf("layer holds %d instructions, want %d", len(l.Instrs), want)
			}
		})
	}
}

func TestDDPulsesMayRepeat(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(0, 1)
	l.Add(Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 100})
	l.Add(Instruction{Gate: gates.XDD, Qubits: []int{2}, Tag: "dd", Time: 300})
	if len(l.Instrs) != 3 {
		t.Error("dd pulses should be allowed to repeat on a qubit")
	}
}

func TestActiveAndIdleQubits(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(1, 2)
	l.Add(Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{100}})
	active := l.ActiveQubits()
	if !active[1] || !active[2] || active[0] {
		t.Error("active qubits wrong")
	}
	idle := l.IdleQubits(4)
	if len(idle) != 2 || idle[0] != 0 || idle[1] != 3 {
		t.Errorf("idle = %v", idle)
	}
}

func TestGateOn(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(1, 2)
	if in, ok := l.GateOn(2); !ok || in.Gate != gates.ECR {
		t.Error("GateOn(2) should find the ECR")
	}
	if _, ok := l.GateOn(0); ok {
		t.Error("GateOn(0) should find nothing")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New(2, 0)
	c.AddLayer(TwoQubitLayer).RZZ(0, 1, 0.5)
	c2 := c.Clone()
	c2.Layers[0].Instrs[0].Params[0] = 9
	if c.Layers[0].Instrs[0].Params[0] != 0.5 {
		t.Error("clone shares parameter storage")
	}
	cond := New(1, 1)
	cond.AddLayer(OneQubitLayer).CondX(0, 0, 1)
	cc := cond.Clone()
	cc.Layers[0].Instrs[0].Cond.Value = 0
	if cond.Layers[0].Instrs[0].Cond.Value != 1 {
		t.Error("clone shares condition storage")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	c := New(2, 1)
	l := c.AddLayer(OneQubitLayer)
	l.Instrs = append(l.Instrs, Instruction{Gate: gates.H, Qubits: []int{5}})
	if err := c.Validate(); err == nil {
		t.Error("out-of-range qubit not caught")
	}

	c2 := New(2, 1)
	l2 := c2.AddLayer(MeasureLayer)
	l2.Instrs = append(l2.Instrs, Instruction{Gate: gates.Measure, Qubits: []int{0}, CBit: 7})
	if err := c2.Validate(); err == nil {
		t.Error("out-of-range cbit not caught")
	}

	c3 := New(2, 1)
	l3 := c3.AddLayer(TwoQubitLayer)
	l3.Instrs = append(l3.Instrs, Instruction{Gate: gates.H, Qubits: []int{0}})
	if err := c3.Validate(); err == nil {
		t.Error("untagged 1q gate in 2q layer not caught")
	}

	c4 := &Circuit{NQubits: -1}
	c4.AddLayer(OneQubitLayer).Instrs = []Instruction{{Gate: gates.H, Qubits: []int{0}}}
	if err := c4.Validate(); err == nil {
		t.Error("qubit of a circuit with a negative qubit count not caught")
	}
}

// TestValidateRule pins which circuits Validate accepts and the exact
// error of each one it rejects. Unlike Layer.Add, Validate lets delays,
// barriers and dd pulses share a qubit with anything in the layer, it
// reports a qubit out of range on every instruction, those included, it
// requires exactly one qubit for a measure or reset, and it requires the
// parameters a gate's matrix reads.
func TestValidateRule(t *testing.T) {
	on := func(g gates.Kind, qs ...int) Instruction { return Instruction{Gate: g, Qubits: qs} }
	dd := func(g gates.Kind, q int, at float64) Instruction {
		return Instruction{Gate: g, Qubits: []int{q}, Tag: "dd", Time: at}
	}
	twirl := func(g gates.Kind, q int) Instruction { return Instruction{Gate: g, Qubits: []int{q}, Tag: "twirl"} }
	delay := func(q int) Instruction {
		return Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{100}}
	}
	measure := func(q, cbit int) Instruction { return Instruction{Gate: gates.Measure, Qubits: []int{q}, CBit: cbit} }
	withParams := func(in Instruction, ps ...float64) Instruction { in.Params = ps; return in }
	layer := func(kind LayerKind, instrs ...Instruction) Layer { return Layer{Kind: kind, Instrs: instrs} }
	cases := []struct {
		name   string
		layers []Layer
		err    string // "" when the circuit is valid
	}{
		{"qubit out of range", []Layer{layer(OneQubitLayer, on(gates.H, 4))},
			"circuit: layer 0: qubit 4 out of range"},
		{"negative qubit", []Layer{layer(OneQubitLayer, on(gates.H, 0)), layer(TwoQubitLayer, on(gates.ECR, 1, -1))},
			"circuit: layer 1: qubit -1 out of range"},
		{"delay out of range", []Layer{layer(OneQubitLayer, on(gates.H, 0), delay(5))},
			"circuit: layer 0: qubit 5 out of range"},
		{"barrier out of range", []Layer{layer(OneQubitLayer, on(gates.Barrier, 0, 1, 2, 3, 4))},
			"circuit: layer 0: qubit 4 out of range"},
		{"dd pulse out of range", []Layer{layer(TwoQubitLayer, on(gates.ECR, 0, 1), dd(gates.XDD, 7, 100))},
			"circuit: layer 0: qubit 7 out of range"},
		{"2q gate over a 1q gate", []Layer{layer(OneQubitLayer, on(gates.H, 1)), layer(TwoQubitLayer, on(gates.ECR, 0, 1), on(gates.H, 1))},
			"circuit: layer 1: qubit 1 used twice"},
		{"1q gate under a 2q gate", []Layer{layer(OneQubitLayer, on(gates.SX, 2), on(gates.CX, 3, 2))},
			"circuit: layer 0: qubit 2 used twice"},
		{"repeated twirl pauli", []Layer{layer(TwirlLayer, twirl(gates.XGate, 2), twirl(gates.ZGate, 3), twirl(gates.ZGate, 2))},
			"circuit: layer 0: qubit 2 used twice"},
		{"measure twice", []Layer{layer(MeasureLayer, measure(0, 0), measure(0, 1))},
			"circuit: layer 0: qubit 0 used twice"},
		{"cbit out of range", []Layer{layer(MeasureLayer, measure(0, 0), measure(1, 2))},
			"circuit: layer 0: cbit 2 out of range"},
		{"negative cbit", []Layer{layer(MeasureLayer, measure(3, -1))},
			"circuit: layer 0: cbit -1 out of range"},
		{"condition bit out of range", []Layer{layer(OneQubitLayer,
			Instruction{Gate: gates.XGate, Qubits: []int{0}, Cond: &Condition{Bit: 3, Value: 1}})},
			"circuit: layer 0: condition bit 3 out of range"},
		{"untagged 1q gate in 2q layer", []Layer{layer(TwoQubitLayer, on(gates.ECR, 0, 1), on(gates.H, 2))},
			"circuit: layer 0: 1q gate h in 2q layer without dd tag"},
		{"twirl pauli in 2q layer", []Layer{layer(TwoQubitLayer, twirl(gates.XGate, 2))},
			"circuit: layer 0: 1q gate x in 2q layer without dd tag"},
		{"2q gate on one qubit", []Layer{layer(TwoQubitLayer, on(gates.ECR, 0))},
			"circuit: layer 0: ecr expects 2 qubits, got 1"},
		{"2q gate on three qubits", []Layer{layer(TwoQubitLayer, on(gates.RZZ, 0, 1, 2))},
			"circuit: layer 0: rzz expects 2 qubits, got 3"},
		{"1q gate on no qubit", []Layer{layer(MeasureLayer, on(gates.H))},
			"circuit: layer 0: h expects 1 qubits, got 0"},
		{"dd pulse on two qubits", []Layer{layer(TwoQubitLayer, on(gates.ECR, 0, 1),
			Instruction{Gate: gates.XDD, Qubits: []int{2, 3}, Tag: "dd"})},
			"circuit: layer 0: xdd expects 1 qubits, got 2"},
		{"measure on no qubit", []Layer{layer(MeasureLayer, Instruction{Gate: gates.Measure})},
			"circuit: layer 0: measure expects 1 qubits, got 0"},
		{"reset on two qubits", []Layer{layer(MeasureLayer, on(gates.Reset, 0, 1))},
			"circuit: layer 0: reset expects 1 qubits, got 2"},
		{"rz without its angle", []Layer{layer(OneQubitLayer, on(gates.H, 0), on(gates.RZ, 1))},
			"circuit: layer 0: rz expects 1 params, got 0"},
		{"u3 with one angle", []Layer{layer(OneQubitLayer, withParams(on(gates.U3, 2), 0.5))},
			"circuit: layer 0: u expects 3 params, got 1"},
		{"rzz with two angles", []Layer{layer(TwoQubitLayer, withParams(on(gates.RZZ, 0, 1), 0.1, 0.2))},
			"circuit: layer 0: rzz expects 1 params, got 2"},
		{"ucan without its angles", []Layer{layer(OneQubitLayer, on(gates.H, 0)), layer(TwoQubitLayer, on(gates.Ucan, 2, 3))},
			"circuit: layer 1: ucan expects 3 params, got 0"},

		{"delays repeat", []Layer{layer(OneQubitLayer, on(gates.H, 0), delay(0), delay(0), delay(1))}, ""},
		{"barriers repeat", []Layer{layer(OneQubitLayer, on(gates.Barrier, 0, 1, 2, 3), on(gates.H, 0), on(gates.Barrier, 0, 1))}, ""},
		{"dd pulses repeat", []Layer{layer(TwoQubitLayer, on(gates.ECR, 0, 1),
			dd(gates.XDD, 2, 100), dd(gates.XDD, 2, 300), dd(gates.XDD, 0, 200))}, ""},
		{"consecutive layers", []Layer{
			layer(OneQubitLayer, on(gates.H, 0), on(gates.SX, 1)),
			layer(TwirlLayer, twirl(gates.XGate, 0), twirl(gates.YGate, 1)),
			layer(TwoQubitLayer, on(gates.ECR, 0, 1)),
			layer(TwirlLayer, twirl(gates.ZGate, 0), twirl(gates.XGate, 1)),
			layer(MeasureLayer, measure(0, 0), measure(1, 1)),
			layer(OneQubitLayer, Instruction{Gate: gates.XGate, Qubits: []int{0}, Cond: &Condition{Bit: 1, Value: 1}}),
		}, ""},
		{"dd-tagged 1q gate in 2q layer", []Layer{layer(TwoQubitLayer, on(gates.CX, 0, 1), dd(gates.YGate, 2, 0))}, ""},
		{"delay and barrier on any number of qubits", []Layer{layer(OneQubitLayer,
			Instruction{Gate: gates.Delay, Params: []float64{100}}, on(gates.Barrier), on(gates.Barrier, 0, 1, 2))}, ""},
		{"reset", []Layer{layer(MeasureLayer, on(gates.Reset, 0), measure(1, 0))}, ""},
		{"parameterized gates", []Layer{
			layer(OneQubitLayer, withParams(on(gates.RZ, 0), 0.1), withParams(on(gates.RX, 1), 0.2),
				withParams(on(gates.RY, 2), 0.3), withParams(on(gates.U3, 3), 0.1, 0.2, 0.3)),
			layer(TwoQubitLayer, withParams(on(gates.RZZ, 0, 1), 0.4), withParams(on(gates.ZX, 2, 3), 0.5)),
			layer(TwoQubitLayer, withParams(on(gates.Ucan, 1, 2), 0.1, 0.2, 0.3)),
		}, ""},
		{"delay without a duration", []Layer{layer(OneQubitLayer, on(gates.H, 0), on(gates.Delay, 1))}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			circ := &Circuit{NQubits: 4, NCBits: 2, Layers: c.layers}
			got := ""
			if err := circ.Validate(); err != nil {
				got = err.Error()
			}
			if got != c.err {
				t.Fatalf("Validate = %q, want %q", got, c.err)
			}
		})
	}
}

func TestInsertLayer(t *testing.T) {
	c := New(1, 0)
	c.AddLayer(OneQubitLayer).H(0)
	c.AddLayer(OneQubitLayer).X(0)
	mid := c.InsertLayer(1, TwirlLayer)
	mid.Z(0)
	if c.Layers[1].Kind != TwirlLayer || c.Layers[2].Instrs[0].Gate != gates.XGate {
		t.Error("InsertLayer misplaced")
	}
}

func TestStringAndDraw(t *testing.T) {
	c := New(2, 1)
	c.AddLayer(OneQubitLayer).H(0)
	c.AddLayer(TwoQubitLayer).ECR(0, 1)
	c.AddLayer(MeasureLayer).Measure(0, 0)
	s := c.String()
	if !strings.Contains(s, "ecr q0,q1") || !strings.Contains(s, "->c0") {
		t.Errorf("String() output missing content:\n%s", s)
	}
	d := c.Draw()
	if !strings.Contains(d, "ecr:C") || !strings.Contains(d, "ecr:T") || !strings.Contains(d, "M") {
		t.Errorf("Draw() output missing content:\n%s", d)
	}
}

func TestTotalDuration(t *testing.T) {
	c := New(1, 0)
	l := c.AddLayer(OneQubitLayer)
	l.H(0)
	l.Start = 10
	l.Duration = 60
	if c.TotalDuration() != 70 {
		t.Errorf("total duration %v", c.TotalDuration())
	}
}

func TestTwoQubitGates(t *testing.T) {
	l := &Layer{Kind: TwoQubitLayer}
	l.ECR(0, 1)
	l.Ucan(2, 3, 0.1, 0.2, 0.3)
	l.Add(Instruction{Gate: gates.Delay, Qubits: []int{4}, Params: []float64{10}})
	var got []gates.Kind
	for in := range l.TwoQubitGates() {
		got = append(got, in.Gate)
	}
	if len(got) != 2 || got[0] != gates.ECR || got[1] != gates.Ucan {
		t.Errorf("TwoQubitGates yields %v, want [ecr ucan]", got)
	}
}

// TestLayerAddAllocs fills 127-qubit layers whose instruction and operand
// slices are preallocated: Add's disjointness check and a pass over
// TwoQubitGates allocate nothing.
func TestLayerAddAllocs(t *testing.T) {
	const n = 127
	ops := make([][]int, n)
	for q := range ops {
		ops[q] = []int{q}
	}
	pairs := make([][]int, n/2)
	for i := range pairs {
		pairs[i] = []int{2 * i, 2*i + 1}
	}
	twirl := &Layer{Kind: TwirlLayer, Instrs: make([]Instruction, 0, n)}
	if a := testing.AllocsPerRun(20, func() {
		twirl.Instrs = twirl.Instrs[:0]
		for q := 0; q < n; q++ {
			twirl.Add(Instruction{Gate: gates.XGate, Qubits: ops[q], Tag: "twirl"})
		}
	}); a != 0 {
		t.Errorf("filling a %d-qubit twirl layer: %v allocations, want 0", n, a)
	}
	gate := &Layer{Kind: TwoQubitLayer, Instrs: make([]Instruction, 0, 3*n)}
	if a := testing.AllocsPerRun(20, func() {
		gate.Instrs = gate.Instrs[:0]
		for _, p := range pairs {
			gate.Add(Instruction{Gate: gates.ECR, Qubits: p})
		}
		for q := 0; q < n; q++ {
			gate.Add(Instruction{Gate: gates.XDD, Qubits: ops[q], Tag: "dd", Time: 100})
			gate.Add(Instruction{Gate: gates.XDD, Qubits: ops[q], Tag: "dd", Time: 300})
		}
		ecrs := 0
		for range gate.TwoQubitGates() {
			ecrs++
		}
		if ecrs != len(pairs) {
			t.Fatalf("TwoQubitGates yields %d gates, want %d", ecrs, len(pairs))
		}
	}); a != 0 {
		t.Errorf("filling a %d-qubit gate layer with DD pulses: %v allocations, want 0", n, a)
	}
}
