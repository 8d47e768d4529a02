package models

import (
	"math"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/gates"
	"casq/internal/sim"
)

func TestRamseyCircuitsValid(t *testing.T) {
	for _, rc := range []RamseyCase{CaseIdlePair, CaseControlSpectator, CaseTargetSpectator, CaseControlControl} {
		spec := BuildRamsey(rc, 3, 500)
		if err := spec.Circuit.Validate(); err != nil {
			t.Errorf("%v: %v", rc, err)
		}
		if len(spec.Probes) == 0 {
			t.Errorf("%v: no probes", rc)
		}
		dev := RamseyDevice(rc, device.DefaultOptions())
		if err := dev.Validate(); err != nil {
			t.Errorf("%v device: %v", rc, err)
		}
	}
}

func TestRamseyIdealReturnsToPlus(t *testing.T) {
	// With no noise, every Ramsey case must keep the probes in |+>.
	for _, rc := range []RamseyCase{CaseIdlePair, CaseControlSpectator, CaseTargetSpectator, CaseControlControl} {
		dev := RamseyDevice(rc, device.DefaultOptions())
		spec := BuildRamsey(rc, 4, 500)
		obs := make([]sim.ObsSpec, len(spec.Probes))
		for i, q := range spec.Probes {
			obs[i] = sim.ObsSpec{q: 'X'}
		}
		vals, err := exec.IdealExpectations(dev, spec.Circuit, obs)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if math.Abs(v-1) > 1e-9 {
				t.Errorf("%v: probe %d ideal <X> = %v, want 1", rc, spec.Probes[i], v)
			}
		}
	}
}

func TestIsingIdealOscillates(t *testing.T) {
	dev := device.NewLine("ising", 6, device.DefaultOptions())
	obs := []sim.ObsSpec{{0: 'X', 5: 'X'}}
	want := map[int]float64{2: -1, 4: 1, 6: -1, 8: 1}
	for d, expect := range want {
		c := BuildFloquetIsing(6, d)
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		vals, err := exec.IdealExpectations(dev, c, obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vals[0]-expect) > 1e-9 {
			t.Errorf("ideal <X0X5>(d=%d) = %v, want %v", d, vals[0], expect)
		}
	}
}

func TestHeisenbergStructure(t *testing.T) {
	c := BuildHeisenbergRing(12, 2, DefaultHeisenberg())
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// 2 steps x 3 colored layers + prep.
	if c.Depth() != 7 {
		t.Errorf("depth %d", c.Depth())
	}
	// Every step covers all 12 ring edges exactly once.
	gateCount := c.CountGates(gates.Ucan)
	if gateCount != 24 {
		t.Errorf("Ucan count %d, want 24", gateCount)
	}
	// No layer reuses a qubit.
	for li, l := range c.Layers {
		seen := map[int]bool{}
		for _, in := range l.Instrs {
			for _, q := range in.Qubits {
				if seen[q] {
					t.Fatalf("layer %d reuses qubit %d", li, q)
				}
				seen[q] = true
			}
		}
	}
}

func TestHeisenbergConservesTotalZ(t *testing.T) {
	// The Heisenberg Hamiltonian conserves total magnetization; with one
	// excitation the sum over <Z_q> must stay n-2.
	n := 6
	dev := device.NewRing("h", n, device.DefaultOptions())
	c := BuildHeisenbergRing(n, 3, DefaultHeisenberg())
	obs := make([]sim.ObsSpec, n)
	for q := 0; q < n; q++ {
		obs[q] = sim.ObsSpec{q: 'Z'}
	}
	vals, err := exec.IdealExpectations(dev, c, obs)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if math.Abs(sum-float64(n-2)) > 1e-9 {
		t.Errorf("total <Z> = %v, want %d", sum, n-2)
	}
	// And the excitation moved: <Z0> < 1.
	if vals[0] > 0.999 {
		t.Error("excitation never left qubit 0")
	}
}

func TestDynamicBellIdeal(t *testing.T) {
	dev := device.NewLine("dyn", 3, device.DefaultOptions())
	c := BuildDynamicBell(dev.DurFF)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := sim.Ideal()
	cfg.Shots = 300
	cfg.Seed = 5
	r := sim.New(dev, cfg)
	res, err := r.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	// Ideal Bell preparation: data bits (c1, c2) always read 00.
	p00 := res.Probability("x00")
	if p00 < 0.999 {
		t.Errorf("ideal Bell fidelity %v, counts %v", p00, res.Counts)
	}
}

func TestCombinedFloquetIdealP00(t *testing.T) {
	dev := CombinedDevice(device.DefaultOptions())
	c := BuildCombinedFloquet(3)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := sim.Ideal()
	cfg.Shots = 200
	r := sim.New(dev, cfg)
	res, err := r.Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Probability("00"); p < 0.999 {
		t.Errorf("ideal P00 = %v", p)
	}
}

func TestLayerFidelityLayerShape(t *testing.T) {
	l := LayerFidelityLayer()
	ecrs := 0
	for range l.TwoQubitGates() {
		ecrs++
	}
	if ecrs != 3 {
		t.Error("benchmark layer must have 3 ECR gates")
	}
	idle := l.IdleQubits(10)
	if len(idle) != 4 {
		t.Errorf("benchmark layer must leave 4 idle qubits, got %v", idle)
	}
}

func TestIdleLayerHelper(t *testing.T) {
	c := circuit.New(3, 0)
	idleLayer(c, 750, 0, 2)
	if c.Layers[0].Kind != circuit.TwoQubitLayer || len(c.Layers[0].Instrs) != 2 {
		t.Error("idleLayer built wrong layer")
	}
	if c.Layers[0].Instrs[0].Params[0] != 750 {
		t.Error("delay duration wrong")
	}
}
