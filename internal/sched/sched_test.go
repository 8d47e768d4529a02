package sched

import (
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

func dev4() *device.Device {
	return device.NewLine("sched", 4, device.DefaultOptions())
}

func TestScheduleDurations(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 1)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwirlLayer).X(1)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	total := Schedule(c, d)

	if c.Layers[0].Duration != d.Dur1Q {
		t.Errorf("1q layer duration %v", c.Layers[0].Duration)
	}
	if c.Layers[1].Duration != 0 {
		t.Error("twirl layer must be free")
	}
	if c.Layers[2].Duration != d.DurECR {
		t.Errorf("2q layer duration %v", c.Layers[2].Duration)
	}
	if c.Layers[3].Duration != d.DurMeas {
		t.Errorf("measure layer duration %v", c.Layers[3].Duration)
	}
	if total != d.Dur1Q+d.DurECR+d.DurMeas {
		t.Errorf("total %v", total)
	}
	// Starts are cumulative.
	if c.Layers[2].Start != d.Dur1Q {
		t.Errorf("layer 2 start %v", c.Layers[2].Start)
	}
}

func TestVirtualRZLayerIsFree(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.OneQubitLayer).RZ(0, 0.3).RZ(2, -0.1)
	Schedule(c, d)
	if c.Layers[0].Duration != 0 {
		t.Errorf("virtual-Rz-only layer must have zero duration, got %v", c.Layers[0].Duration)
	}
}

func TestRZZStretchDuration(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.TwoQubitLayer).RZZ(0, 1, 0.785398) // pi/4: half stretch
	Schedule(c, d)
	got := c.Layers[0].Duration
	want := d.DurECR / 2
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("RZZ(pi/4) duration %v, want ~%v", got, want)
	}
	// Full pi/2 angle costs a full ECR.
	c2 := circuit.New(4, 0)
	c2.AddLayer(circuit.TwoQubitLayer).RZZ(0, 1, 1.5707963)
	Schedule(c2, d)
	if c2.Layers[0].Duration < d.DurECR*0.99 {
		t.Error("RZZ(pi/2) should cost a full ECR duration")
	}
}

// TestRZZWithoutAngleSchedules pins that an RZZ appended without its
// angle, which Validate rejects, schedules as a full ECR instead of
// panicking before Validate can report it.
func TestRZZWithoutAngleSchedules(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Instrs = append(l.Instrs, circuit.Instruction{Gate: gates.RZZ, Qubits: []int{0, 1}})
	if got := Schedule(c, d); got != d.DurECR {
		t.Errorf("RZZ without an angle lasts %v, want one ECR (%v)", got, d.DurECR)
	}
}

func TestUcanDuration(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.TwoQubitLayer).Ucan(0, 1, 0.1, 0.1, 0.1)
	Schedule(c, d)
	want := 3*d.DurECR + 2*d.Dur1Q
	if c.Layers[0].Duration != want {
		t.Errorf("Ucan duration %v, want %v (3 CNOT blocks)", c.Layers[0].Duration, want)
	}
}

func TestConditionalGateExtendsLayer(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 1)
	ff := c.AddLayer(circuit.OneQubitLayer)
	ff.Add(circuit.Instruction{Gate: gates.XGate, Qubits: []int{0},
		Cond: &circuit.Condition{Bit: 0, Value: 1}, Time: 1000})
	Schedule(c, d)
	if c.Layers[0].Duration != 1000+d.Dur1Q {
		t.Errorf("feed-forward layer duration %v", c.Layers[0].Duration)
	}
	// Conditional virtual Rz must not extend the layer.
	c2 := circuit.New(4, 1)
	c2.AddLayer(circuit.OneQubitLayer).CondRZ(0, 0.5, 0, 1)
	Schedule(c2, d)
	if c2.Layers[0].Duration != 0 {
		t.Errorf("conditional virtual Rz layer duration %v", c2.Layers[0].Duration)
	}
}

func TestIdleRuns(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(1).H(2).H(3)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1) // 2,3 idle
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1) // 2,3 idle again (merged run)
	Schedule(c, d)
	runs := IdleRuns(c, 100)
	// Qubits 2 and 3 idle from the end of the prep layer to circuit end.
	if len(runs) != 2 {
		t.Fatalf("runs: %+v", runs)
	}
	for _, r := range runs {
		if r.Qubit != 2 && r.Qubit != 3 {
			t.Errorf("unexpected idle qubit %d", r.Qubit)
		}
		if r.End-r.Start != 2*d.DurECR {
			t.Errorf("run duration %v, want %v", r.End-r.Start, 2*d.DurECR)
		}
	}
}

func TestIdleRunsInterruptedByGate(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1) // 2,3 idle
	c.AddLayer(circuit.OneQubitLayer).X(2)      // interrupts qubit 2
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1) // 2,3 idle
	Schedule(c, d)
	runs := IdleRuns(c, 100)
	count2 := 0
	for _, r := range runs {
		if r.Qubit == 2 {
			count2++
		}
	}
	if count2 != 2 {
		t.Errorf("qubit 2 should have 2 separate runs, got %d (%+v)", count2, runs)
	}
}

func TestCollectJointDelaysGroupsAdjacent(t *testing.T) {
	d := dev4()
	c := circuit.New(4, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	for q := 0; q < 4; q++ {
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{500}})
	}
	Schedule(c, d)
	ws := CollectJointDelays(c, d.CrosstalkGraph(), 100)
	if len(ws) != 1 {
		t.Fatalf("windows: %+v", ws)
	}
	if len(ws[0].Qubits) != 4 {
		t.Errorf("joint window should cover all 4 qubits: %+v", ws[0])
	}
}

func TestCollectJointDelaysSplitsStaggered(t *testing.T) {
	// Qubit 0 idles for two layers, qubit 1 only for the second: the split
	// should produce a 2-qubit window plus a residual 1-qubit window.
	d := dev4()
	c := circuit.New(4, 0)
	l1 := c.AddLayer(circuit.TwoQubitLayer)
	l1.ECR(1, 2)
	l1.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{500}})
	l2 := c.AddLayer(circuit.TwoQubitLayer)
	l2.ECR(2, 3)
	Schedule(c, d)
	ws := CollectJointDelays(c, d.CrosstalkGraph(), 100)
	var joint, solo int
	for _, w := range ws {
		switch len(w.Qubits) {
		case 2:
			joint++
		case 1:
			solo++
		}
	}
	if joint != 1 {
		t.Errorf("expected one 2-qubit window, got windows %+v", ws)
	}
	if solo < 1 {
		t.Errorf("expected residual 1-qubit window, got %+v", ws)
	}
}
