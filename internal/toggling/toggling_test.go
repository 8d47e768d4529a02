package toggling

import (
	"math"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/sched"
)

func quietDev(n int) *device.Device {
	o := device.DefaultOptions()
	o.DeltaMax, o.QuasistaticSigma = 0, 0
	return device.NewLine("tog", n, o)
}

func scheduled(c *circuit.Circuit, d *device.Device) *circuit.Circuit {
	sched.Schedule(c, d)
	return c
}

// integrate runs a fresh Integrator over one layer and returns its nonzero
// angles in map form.
func integrate(l *circuit.Layer, d *device.Device, includeStark bool, collapsed []bool) Result {
	in := NewIntegrator(d)
	in.Integrate(l, includeStark, collapsed)
	return in.result()
}

func TestIdlePairFullAccumulation(t *testing.T) {
	d := quietDev(2)
	c := circuit.New(2, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{500}})
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{500}})
	scheduled(c, d)

	res := integrate(&c.Layers[0], d, false, nil)
	w := 2 * math.Pi * d.ZZRate(0, 1) * 500e-9
	e := device.NewEdge(0, 1)
	if math.Abs(res.PhiZZ[e]-w) > 1e-12 {
		t.Errorf("PhiZZ = %v, want %v", res.PhiZZ[e], w)
	}
	if math.Abs(res.PhiZ[0]+w) > 1e-12 || math.Abs(res.PhiZ[1]+w) > 1e-12 {
		t.Errorf("PhiZ = %v, want %v each", res.PhiZ, -w)
	}
}

func TestECREchoCancelsControlTerms(t *testing.T) {
	d := quietDev(3)
	c := circuit.New(3, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(1, 2) // control 1, spectator 0
	scheduled(c, d)

	res := integrate(&c.Layers[0], d, false, nil)
	// ZZ(0,1) echoed away; spectator keeps its Z; control's Z echoed.
	if v := res.PhiZZ[device.NewEdge(0, 1)]; math.Abs(v) > 1e-12 {
		t.Errorf("ctrl-spectator ZZ should be echoed: %v", v)
	}
	if v := res.PhiZ[1]; math.Abs(v) > 1e-12 {
		t.Errorf("control Z should be echoed: %v", v)
	}
	w := 2 * math.Pi * d.ZZRate(0, 1) * d.DurECR * 1e-9
	if v := res.PhiZ[0]; math.Abs(v+w) > 1e-12 {
		t.Errorf("spectator Z = %v, want %v", v, -w)
	}
}

func TestRotarySuppressesTargetTerms(t *testing.T) {
	d := quietDev(3)
	c := circuit.New(3, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(2, 1) // target 1, spectator 0
	scheduled(c, d)
	res := integrate(&c.Layers[0], d, false, nil)
	if v := res.PhiZZ[device.NewEdge(0, 1)]; math.Abs(v) > 1e-12 {
		t.Errorf("target-spectator ZZ should be rotary-suppressed: %v", v)
	}
	// Spectator 0 keeps its own -Z term from the (0,1) coupling.
	w := 2 * math.Pi * d.ZZRate(0, 1) * d.DurECR * 1e-9
	if v := res.PhiZ[0]; math.Abs(v+w) > 1e-12 {
		t.Errorf("target spectator Z = %v, want %v", v, -w)
	}
}

func TestControlControlZZSurvives(t *testing.T) {
	o := device.DefaultOptions()
	edges := []device.Directed{{Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	d := device.NewSynthetic("cc", 4, edges, nil, o)
	c := circuit.New(4, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.ECR(1, 0)
	l.ECR(2, 3)
	scheduled(c, d)
	res := integrate(&c.Layers[0], d, false, nil)
	w := 2 * math.Pi * d.ZZRate(1, 2) * d.DurECR * 1e-9
	if v := res.PhiZZ[device.NewEdge(1, 2)]; math.Abs(v-w) > 1e-12 {
		t.Errorf("ctrl-ctrl ZZ should survive in full: %v, want %v", v, w)
	}
}

func TestStaggeredPulsesCancelEverything(t *testing.T) {
	d := quietDev(2)
	c := circuit.New(2, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	T := 1000.0
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{T}})
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{T}})
	// Staggered X2: qubit 0 at T/2, T; qubit 1 at T/4, 3T/4.
	l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{0}, Tag: "dd", Time: T / 2})
	l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{0}, Tag: "dd", Time: T})
	l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{1}, Tag: "dd", Time: T / 4})
	l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{1}, Tag: "dd", Time: 3 * T / 4})
	scheduled(c, d)
	res := integrate(&c.Layers[0], d, true, nil)
	if len(res.PhiZ) != 0 || len(res.PhiZZ) != 0 {
		t.Errorf("staggered X2 should cancel everything: %+v", res)
	}
}

func TestAlignedPulsesLeaveZZ(t *testing.T) {
	d := quietDev(2)
	c := circuit.New(2, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	T := 1000.0
	for _, q := range []int{0, 1} {
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{T}})
		l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{q}, Tag: "dd", Time: T / 2})
		l.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{q}, Tag: "dd", Time: T})
	}
	scheduled(c, d)
	res := integrate(&c.Layers[0], d, false, nil)
	if len(res.PhiZ) != 0 {
		t.Errorf("aligned X2 should cancel single-qubit Z: %+v", res.PhiZ)
	}
	w := 2 * math.Pi * d.ZZRate(0, 1) * T * 1e-9
	if v := res.PhiZZ[device.NewEdge(0, 1)]; math.Abs(v-w) > 1e-12 {
		t.Errorf("aligned X2 must leave the ZZ term: %v, want %v", v, w)
	}
}

func TestStarkOnSpectator(t *testing.T) {
	d := quietDev(3)
	c := circuit.New(3, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(1, 2)
	scheduled(c, d)
	withStark := integrate(&c.Layers[0], d, true, nil)
	noStark := integrate(&c.Layers[0], d, false, nil)
	ws := 2 * math.Pi * d.Stark[device.Directed{Src: 1, Dst: 0}] * d.DurECR * 1e-9
	diff := withStark.PhiZ[0] - noStark.PhiZ[0]
	if math.Abs(diff-ws) > 1e-12 {
		t.Errorf("Stark contribution %v, want %v", diff, ws)
	}
}

// TestStarkSumOrderFixed: qubit 2 idles between two driven ECR pairs, so
// its Stark angle sums a shift from each side. The sum must not depend on
// map iteration order; CA-EC compensates exactly this angle.
func TestStarkSumOrderFixed(t *testing.T) {
	o := device.DefaultOptions()
	o.Seed = 5
	d := device.NewLine("stark5", 5, o)
	c := circuit.New(5, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1).ECR(3, 4)
	scheduled(c, d)
	in := NewIntegrator(d)
	in.Integrate(&c.Layers[0], true, nil)
	want := in.PhiZ[2]
	for i := 0; i < 100; i++ {
		in.Integrate(&c.Layers[0], true, nil)
		if got := in.PhiZ[2]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: qubit 2 angle %v, first call gave %v", i, got, want)
		}
	}
}

func TestRZZFrameRestoringEcho(t *testing.T) {
	d := quietDev(3)
	c := circuit.New(3, 0)
	c.AddLayer(circuit.TwoQubitLayer).RZZ(1, 2, 0.4)
	scheduled(c, d)
	in := NewIntegrator(d)
	in.Integrate(&c.Layers[0], false, nil)
	// The RZZ control (qubit 1) carries a frame-restoring X2 echo.
	if n := len(in.sched[1].pulses); n != 2 {
		t.Errorf("RZZ control should have 2 echo pulses, got %d", n)
	}
	res := in.result()
	// Spectator 0's ZZ with the echoed control cancels.
	if v := res.PhiZZ[device.NewEdge(0, 1)]; math.Abs(v) > 1e-12 {
		t.Errorf("spectator ZZ should cancel under X2 echo: %v", v)
	}
}

func TestIntegrateFiltered(t *testing.T) {
	d := quietDev(2)
	c := circuit.New(2, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{500}})
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{500}})
	scheduled(c, d)
	res := integrate(&c.Layers[0], d, false, []bool{true, true})
	if len(res.PhiZ) != 0 || len(res.PhiZZ) != 0 {
		t.Errorf("filter should remove all edges: %+v", res)
	}
}

func TestZeroDurationLayer(t *testing.T) {
	d := quietDev(2)
	l := &circuit.Layer{Kind: circuit.TwirlLayer}
	l.X(0)
	res := integrate(l, d, true, nil)
	if len(res.PhiZ) != 0 || len(res.PhiZZ) != 0 {
		t.Error("zero-duration layers must contribute nothing")
	}
}
