package dd

import (
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/sched"
	"casq/internal/toggling"
)

func idleCircuit(n, layers int, tau float64) *circuit.Circuit {
	c := circuit.New(n, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < n; q++ {
		prep.H(q)
	}
	for i := 0; i < layers; i++ {
		l := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q < n; q++ {
			l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{tau}})
		}
	}
	return c
}

func TestInsertNoneDoesNothing(t *testing.T) {
	dev := device.NewLine("d", 2, device.DefaultOptions())
	c := idleCircuit(2, 2, 500)
	sched.Schedule(c, dev)
	rep, err := Insert(c, dev, Options{Strategy: None})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 0 || c.CountGates(gates.XDD) != 0 {
		t.Error("None strategy inserted pulses")
	}
}

func TestAlignedInsertsSamePattern(t *testing.T) {
	dev := device.NewLine("d", 2, device.DefaultOptions())
	c := idleCircuit(2, 2, 500)
	sched.Schedule(c, dev)
	rep, err := Insert(c, dev, Options{Strategy: Aligned, MinDuration: 100, MaxColors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != 4 { // 2 qubits x (T/2, T)
		t.Errorf("aligned pulses = %d, want 4 (report %+v)", rep.Total, rep.Windows)
	}
	for _, w := range rep.Windows {
		for _, col := range w.Colors {
			if col != 1 {
				t.Error("aligned must use color 1 everywhere")
			}
		}
	}
}

func TestContextAwareColoringValid(t *testing.T) {
	dev := device.NewLine("d", 4, device.DefaultOptions())
	c := idleCircuit(4, 3, 500)
	sched.Schedule(c, dev)
	rep, err := Insert(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := dev.CrosstalkGraph()
	for _, w := range rep.Windows {
		for q, cq := range w.Colors {
			if cq == 0 {
				t.Errorf("idle qubit %d received the no-pulse color", q)
			}
			for _, nb := range g.Neighbors(q) {
				if cn, ok := w.Colors[nb]; ok && cn == cq {
					t.Errorf("adjacent idle qubits %d,%d share color %d", q, nb, cq)
				}
			}
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContextAwareSuppressesAllPairs(t *testing.T) {
	// After CA-DD, the toggling integrals of every idle window layer must
	// vanish: no surviving Z or ZZ anywhere (coherent model).
	dev := device.NewLine("d", 4, device.DefaultOptions())
	c := idleCircuit(4, 1, 2000)
	sched.Schedule(c, dev)
	if _, err := Insert(c, dev, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	in := toggling.NewIntegrator(dev)
	for li := range c.Layers {
		l := &c.Layers[li]
		if l.Kind != circuit.TwoQubitLayer {
			continue
		}
		in.Integrate(l, true, nil)
		for q, phi := range in.PhiZ {
			if phi > 1e-9 || phi < -1e-9 {
				t.Errorf("surviving Z on q%d: %v", q, phi)
			}
		}
		for i, phi := range in.PhiZZ {
			if e := in.Edges[i]; phi > 1e-9 || phi < -1e-9 {
				t.Errorf("surviving ZZ on %v: %v", e, phi)
			}
		}
	}
}

func TestControlPinnedToEchoColor(t *testing.T) {
	// A spectator next to an ECR control must not get color 1 (the echo
	// pattern): Algorithm 1's first constraint.
	dev := device.NewLine("d", 4, device.DefaultOptions())
	c := circuit.New(4, 0)
	c.AddLayer(circuit.OneQubitLayer).H(3)
	c.AddLayer(circuit.TwoQubitLayer).ECR(2, 1) // control 2, spectator 3
	sched.Schedule(c, dev)
	rep, err := Insert(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range rep.Windows {
		if col, ok := w.Colors[3]; ok {
			found = true
			if col == 1 {
				t.Error("control spectator shares the echo color")
			}
		}
	}
	if !found {
		t.Fatalf("no window colored qubit 3: %+v", rep.Windows)
	}
}

func TestTargetSpectatorUnconstrained(t *testing.T) {
	// The rotary-protected target imposes no constraint, so its idle
	// neighbor may take the lowest pulsed color.
	dev := device.NewLine("d", 4, device.DefaultOptions())
	c := circuit.New(4, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(2, 1) // target 1, spectator 0
	sched.Schedule(c, dev)
	rep, err := Insert(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Windows {
		if col, ok := w.Colors[0]; ok && col != 2 {
			// color 1 is taken by the adjacent... qubit 0 neighbors only
			// qubit 1 (the target, uncolored), so greedy gives the lowest
			// pulsed color compatible: color 1 is free here? No: the gate
			// control 2 is pinned to 1 but not adjacent to 0, so color 1 is
			// allowed.
			if col != 1 {
				t.Errorf("target spectator color %d, expected lowest available", col)
			}
		}
	}
}

func TestNNNEdgeForcesThirdColor(t *testing.T) {
	// Three jointly idle qubits on a chain with an NNN edge (0,2) need three
	// distinct pulsed colors (paper Fig. 4c / Fig. 5).
	devOpts := device.DefaultOptions()
	edges := []device.Directed{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}
	nnn := []device.Edge{device.NewEdge(0, 2)}
	dev := device.NewSynthetic("nnn", 3, edges, nnn, devOpts)

	c := idleCircuit(3, 1, 2000)
	sched.Schedule(c, dev)
	rep, err := Insert(c, dev, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Windows {
		if len(w.Colors) == 3 {
			seen := map[int]bool{}
			for _, col := range w.Colors {
				seen[col] = true
			}
			if len(seen) != 3 {
				t.Errorf("NNN triple should use 3 distinct colors: %v", w.Colors)
			}
		}
	}
}

func TestStrategyString(t *testing.T) {
	if None.String() != "none" || ContextAware.String() != "ca-dd" {
		t.Error("strategy names wrong")
	}
}
