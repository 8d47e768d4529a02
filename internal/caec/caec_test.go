package caec_test

import (
	"math"
	"math/rand"
	"testing"

	"casq/internal/caec"
	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/layerfid"
	"casq/internal/linalg"
	"casq/internal/sched"
	"casq/internal/sim"
	"casq/internal/twirl"
)

// exactOpts materializes every pending compensation (threshold 0) so the
// coherent cancellation tests can assert exactness.
func exactOpts() caec.Options {
	o := caec.DefaultOptions()
	o.MaterializeMin = 0
	return o
}

func quietDevice(n int) *device.Device {
	opts := device.DefaultOptions()
	opts.DeltaMax = 0
	opts.QuasistaticSigma = 0
	opts.Err1Q = 0
	opts.Err2Q = 0
	opts.ReadoutErr = 0
	opts.T1Min, opts.T1Max = 1e12, 1e12
	opts.T2Factor = 2.0
	opts.RotaryResidual = 0
	opts.Dur1Q = 1e-6
	return device.NewLine("quiet", n, opts)
}

func coherent1() sim.Config {
	c := sim.CoherentOnly(1)
	c.Workers = 1
	return c
}

// fidelityToIdeal compiles nothing: it runs `noisy` under coherent-only
// noise and `ideal` with noise off, returning |<ideal|noisy>|^2.
func fidelityToIdeal(t *testing.T, dev *device.Device, noisy, ideal *circuit.Circuit) float64 {
	t.Helper()
	rn := sim.New(dev, coherent1())
	got, err := rn.FinalState(noisy)
	if err != nil {
		t.Fatal(err)
	}
	ri := sim.New(dev, sim.Ideal())
	want, err := ri.FinalState(ideal)
	if err != nil {
		t.Fatal(err)
	}
	return linalg.FidelityPure(got, want)
}

// buildLayered builds an Ising-like circuit: alternating ECR layers with
// idle boundary qubits and 1q X layers — a workload exercising idle-pair
// ZZ, spectator Z, and Stark errors.
func buildLayered(n, steps int) *circuit.Circuit {
	c := circuit.New(n, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < n; q++ {
		prep.H(q)
	}
	for s := 0; s < steps; s++ {
		even := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q+1 < n; q += 2 {
			even.ECR(q, q+1)
		}
		odd := c.AddLayer(circuit.TwoQubitLayer)
		for q := 1; q+1 < n; q += 2 {
			odd.ECR(q, q+1)
		}
		xs := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < n; q++ {
			xs.X(q)
		}
	}
	return c
}

func TestCAECCancelsCoherentNoise(t *testing.T) {
	dev := quietDevice(4)
	base := buildLayered(4, 3)
	sched.Schedule(base, dev)

	bare := fidelityToIdeal(t, dev, base, base)
	if bare > 0.95 {
		t.Fatalf("coherent noise too weak to test suppression (bare fidelity %.4f)", bare)
	}

	compiled, stats, err := caec.Apply(base, dev, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	fixed := fidelityToIdeal(t, dev, compiled, base)
	if fixed < 0.9999 {
		t.Errorf("CA-EC should cancel coherent noise exactly: fidelity %.6f (bare %.4f, stats %+v)",
			fixed, bare, stats)
	}
	if stats.VirtualRZ == 0 {
		t.Error("expected virtual Rz corrections to be inserted")
	}
}

func TestCAECWithTwirling(t *testing.T) {
	dev := quietDevice(4)
	base := buildLayered(4, 2)
	rng := rand.New(rand.NewSource(5))
	inst, err := twirl.Instance(base, twirl.GatesOnly, rng)
	if err != nil {
		t.Fatal(err)
	}
	sched.Schedule(inst, dev)

	bare := fidelityToIdeal(t, dev, inst, base)
	compiled, stats, err := caec.Apply(inst, dev, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	fixed := fidelityToIdeal(t, dev, compiled, base)
	if fixed < 0.9999 {
		t.Errorf("CA-EC on twirled instance: fidelity %.6f (bare %.4f, stats %+v)", fixed, bare, stats)
	}
}

func TestCAECCaseIVAdjacentControls(t *testing.T) {
	// Case IV (paper Fig. 3f): two parallel ECRs with adjacent controls.
	// The echoes align, ZZ between the controls survives, DD cannot be
	// applied (the qubits are active) — only EC fixes it.
	opts := device.DefaultOptions()
	opts.DeltaMax = 0
	opts.QuasistaticSigma = 0
	opts.Err1Q = 0
	opts.Err2Q = 0
	opts.ReadoutErr = 0
	opts.T1Min, opts.T1Max = 1e12, 1e12
	opts.T2Factor = 2.0
	opts.RotaryResidual = 0
	opts.Dur1Q = 1e-6
	// Line of 4 with controls 1 and 2 adjacent: gates (1->0) and (2->3).
	edges := []device.Directed{{Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}}
	dev := device.NewSynthetic("caseiv", 4, edges, nil, opts)

	build := func(steps int) *circuit.Circuit {
		c := circuit.New(4, 0)
		prep := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < 4; q++ {
			prep.H(q)
		}
		for s := 0; s < steps; s++ {
			l := c.AddLayer(circuit.TwoQubitLayer)
			l.ECR(1, 0)
			l.ECR(2, 3)
		}
		return c
	}
	base := build(4)
	sched.Schedule(base, dev)

	bare := fidelityToIdeal(t, dev, base, base)
	if bare > 0.97 {
		t.Fatalf("ctrl-ctrl ZZ should hurt: bare fidelity %.4f", bare)
	}
	compiled, stats, err := caec.Apply(base, dev, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.InsertedRZZ == 0 {
		t.Errorf("expected materialized RZZ corrections for ctrl-ctrl ZZ, stats %+v", stats)
	}
	fixed := fidelityToIdeal(t, dev, compiled, base)
	if fixed < 0.999 {
		t.Errorf("CA-EC should suppress ctrl-ctrl ZZ: fidelity %.6f (bare %.4f)", fixed, bare)
	}
}

func TestCAECAbsorbsIntoUcan(t *testing.T) {
	// Heisenberg-style workload: idle-pair errors absorbed into adjacent
	// Ucan gates at zero cost (no materialized RZZ on gate edges).
	dev := quietDevice(6)
	c := circuit.New(6, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	prep.X(0)
	prep.H(4)
	prep.H(5)
	a, b, g := -0.2, -0.2, -0.2
	for s := 0; s < 3; s++ {
		// Layer A: qubits 4 and 5 idle side by side, accumulating ZZ.
		l1 := c.AddLayer(circuit.TwoQubitLayer)
		l1.Ucan(0, 1, a, b, g)
		l1.Ucan(2, 3, a, b, g)
		// Layer B: a Ucan on the formerly idle pair absorbs the pending ZZ.
		l2 := c.AddLayer(circuit.TwoQubitLayer)
		l2.Ucan(1, 2, a, b, g)
		l2.Ucan(4, 5, a, b, g)
	}
	sched.Schedule(c, dev)

	bare := fidelityToIdeal(t, dev, c, c)
	compiled, stats, err := caec.Apply(c, dev, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.AbsorbedUcan == 0 {
		t.Errorf("expected ZZ absorption into Ucan, stats %+v", stats)
	}
	fixed := fidelityToIdeal(t, dev, compiled, c)
	if fixed < 0.9999 {
		t.Errorf("CA-EC with Ucan absorption: fidelity %.6f (bare %.4f, stats %+v)", fixed, bare, stats)
	}
}

func TestCAECDynamicCircuit(t *testing.T) {
	// Mid-circuit measurement with feed-forward (paper Fig. 9): the ZZ
	// between the measured aux and its idle data spectator is compensated
	// by a measurement-conditioned virtual Rz.
	dev := quietDevice(3)
	build := func() *circuit.Circuit {
		c := circuit.New(3, 1)
		c.AddLayer(circuit.OneQubitLayer).H(0).H(2)
		c.AddLayer(circuit.TwoQubitLayer).CX(0, 1)
		c.AddLayer(circuit.TwoQubitLayer).CX(2, 1)
		c.AddLayer(circuit.MeasureLayer).Measure(1, 0)
		ff := c.AddLayer(circuit.OneQubitLayer)
		ff.Add(circuit.Instruction{
			Gate: gates.XGate, Qubits: []int{2},
			Cond: &circuit.Condition{Bit: 0, Value: 1},
			Time: dev.DurFF,
		})
		return c
	}

	// Ideal Bell state between 0 and 2 (q1 collapsed): compute the ideal
	// final state by running the same circuit noiselessly with a fixed
	// outcome... instead verify via Bell correlations below.
	noisy := build()
	sched.Schedule(noisy, dev)
	compiled, stats, err := caec.Apply(noisy, dev, exactOpts())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Conditional == 0 {
		t.Errorf("expected conditional corrections, stats %+v", stats)
	}

	bell := func(c *circuit.Circuit, cfg sim.Config) float64 {
		r := sim.New(dev, cfg)
		// <X0 X2> + <Z0 Z2> = 2 for the Phi+ Bell state.
		vals, err := r.Expectations(c, []sim.ObsSpec{
			{0: 'X', 2: 'X'}, {0: 'Z', 2: 'Z'},
		})
		if err != nil {
			t.Fatal(err)
		}
		return (vals[0] + vals[1]) / 2
	}
	cohCfg := sim.CoherentOnly(64)
	cohCfg.Seed = 9
	bare := bell(noisy, cohCfg)
	fixed := bell(compiled, cohCfg)
	if fixed < bare+0.02 {
		t.Errorf("CA-EC should improve Bell correlations: bare %.4f fixed %.4f", bare, fixed)
	}
	if fixed < 0.995 {
		t.Errorf("CA-EC Bell correlation too low: %.4f", fixed)
	}
}

func TestCAECMinAngleSkipsNoise(t *testing.T) {
	dev := quietDevice(2)
	c := circuit.New(2, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(1)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{500}})
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{500}})
	sched.Schedule(c, dev)

	opts := caec.DefaultOptions()
	opts.MinAngle = math.Pi // absurdly high: nothing should be compensated
	compiled, stats, err := caec.Apply(c, dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.VirtualRZ != 0 || stats.InsertedRZZ != 0 {
		t.Errorf("nothing should pass the MinAngle filter, stats %+v", stats)
	}
	if compiled.Depth() != c.Depth() {
		t.Errorf("no layers should have been inserted")
	}
}

// TestDroppedAnglesDeterministic compiles one full-device circuit again and
// again: Stats.DroppedAngles sums hundreds of dropped pending angles, and
// the sum must run in one fixed order, not in map iteration order, so that
// every compile reports the same bits.
func TestDroppedAnglesDeterministic(t *testing.T) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < dev.NQubits; q++ {
		prep.H(q)
	}
	tiled := layerfid.TiledLayer(dev)
	for i := 0; i < 4; i++ {
		c.Layers = append(c.Layers, tiled.Clone())
	}
	compile := func() caec.Stats {
		inst, err := twirl.Instance(c, twirl.AllQubits, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		sched.Schedule(inst, dev)
		_, stats, err := caec.Apply(inst, dev, caec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	first := compile()
	if first.Dropped == 0 {
		t.Fatal("fixture drops no angles; it cannot test the sum order")
	}
	for i := 1; i < 40; i++ {
		if got := compile(); math.Float64bits(got.DroppedAngles) != math.Float64bits(first.DroppedAngles) ||
			got.Dropped != first.Dropped {
			t.Fatalf("compile %d: dropped %d angles summing to %.17g, first compile %d summing to %.17g",
				i, got.Dropped, got.DroppedAngles, first.Dropped, first.DroppedAngles)
		}
	}
}
