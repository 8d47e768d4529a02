package layout

import (
	"math/rand"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/pass"
	"casq/internal/sched"
)

// quietLine builds an n-qubit line whose ZZ rates are pinned per edge so
// tests control exactly where the low-noise subregion sits.
func quietLine(t *testing.T, n int, zz map[device.Edge]float64) *device.Device {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 5
	d := device.NewLine("zline", n, opts)
	for e := range d.ZZ {
		if v, ok := zz[e]; ok {
			d.ZZ[e] = v
		}
	}
	return d
}

// pathCircuit is a d-step line workload on n qubits: NN gates along the
// chain, the interaction graph is the path 0-1-...-n-1.
func pathCircuit(n, d int) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	for s := 0; s < d; s++ {
		even := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q+1 < n; q += 2 {
			even.ECR(q, q+1)
		}
		odd := c.AddLayer(circuit.TwoQubitLayer)
		for q := 1; q+1 < n; q += 2 {
			odd.ECR(q, q+1)
		}
	}
	return c
}

// TestChoosePicksMinimalZZRegion pins the context-aware selection: on a
// 9-qubit line whose ZZ is huge everywhere except the tail edges, the
// 3-qubit path workload must land exactly on the quiet tail {6,7,8}.
func TestChoosePicksMinimalZZRegion(t *testing.T) {
	zz := map[device.Edge]float64{}
	for i := 0; i+1 < 9; i++ {
		zz[device.NewEdge(i, i+1)] = 400e3 // loud
	}
	zz[device.NewEdge(6, 7)] = 1e3
	zz[device.NewEdge(7, 8)] = 1e3
	zz[device.NewEdge(5, 6)] = 2e3 // quiet boundary into the tail
	dev := quietLine(t, 9, zz)

	pl, err := Choose(dev, pathCircuit(3, 2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Region; len(got) != 3 || got[0] != 6 || got[1] != 7 || got[2] != 8 {
		t.Fatalf("layout chose region %v, want [6 7 8] (score %.4f)", got, pl.Score)
	}
	if pl.Sub.NQubits != 3 {
		t.Errorf("induced sub-device has %d qubits, want 3", pl.Sub.NQubits)
	}
	// The induced calibration must be the parent's, reindexed.
	if pl.Sub.ZZ[device.NewEdge(0, 1)] != 1e3 {
		t.Errorf("induced ZZ(0,1) = %v, want the parent's ZZ(6,7) = 1e3", pl.Sub.ZZ[device.NewEdge(0, 1)])
	}
	if pl.Sub.T1[0] != dev.T1[6] {
		t.Errorf("induced T1[0] should be parent T1[6]")
	}
}

// TestChooseScoresDistinctRegions pins the region-diversity rule of the
// TopK cut: the static score ignores Stark shifts, so a region that looks
// quietest statically but carries huge Stark must lose to a statically
// worse region once the exact toggling-frame scorer sees it. With a plain
// prefix cut at TopK=2 both finalists would be the two orientations of
// the Stark-poisoned region and the better region would never be scored.
func TestChooseScoresDistinctRegions(t *testing.T) {
	zz := map[device.Edge]float64{}
	for i := 0; i+1 < 8; i++ {
		zz[device.NewEdge(i, i+1)] = 400e3 // loud everywhere...
	}
	zz[device.NewEdge(0, 1)] = 10e3 // ...except region A {0,1,2}: statically best
	zz[device.NewEdge(1, 2)] = 10e3
	zz[device.NewEdge(2, 3)] = 30e3 // A's boundary
	zz[device.NewEdge(5, 6)] = 20e3 // region B {5,6,7}: statically second
	zz[device.NewEdge(6, 7)] = 20e3
	zz[device.NewEdge(4, 5)] = 30e3 // B's boundary
	dev := quietLine(t, 8, zz)
	// Poison region A with enormous Stark shifts, invisible to the static
	// filter; clear them in region B.
	for dir := range dev.Stark {
		switch {
		case dir.Src <= 2 && dir.Dst <= 2:
			dev.Stark[dir] = 1e6
		case dir.Src >= 5 && dir.Dst >= 5:
			dev.Stark[dir] = 0
		}
	}
	opts := DefaultOptions()
	opts.TopK = 2
	pl, err := Choose(dev, pathCircuit(3, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Region; len(got) != 3 || got[0] != 5 {
		t.Fatalf("layout chose region %v, want the Stark-free [5 6 7]", got)
	}
}

// TestChooseDeterministic pins that repeated Choose calls return the same
// embedding — the experiment cache assumes layout is a pure function.
func TestChooseDeterministic(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Choose(dev, pathCircuit(6, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Choose(dev, pathCircuit(6, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Phys {
		if a.Phys[i] != b.Phys[i] {
			t.Fatalf("non-deterministic layout: %v vs %v", a.Phys, b.Phys)
		}
	}
	if a.Score != b.Score {
		t.Fatalf("non-deterministic score: %v vs %v", a.Score, b.Score)
	}
}

// TestRouteInsertsSwapsOnlyWhenNonAdjacent pins the router contract: an
// all-adjacent circuit routes to itself with zero SWAPs, and a single
// distance-2 gate gets exactly one SWAP.
func TestRouteInsertsSwapsOnlyWhenNonAdjacent(t *testing.T) {
	dev := device.NewLine("r3", 4, device.DefaultOptions())

	adj := circuit.New(4, 0)
	adj.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	adj.AddLayer(circuit.TwoQubitLayer).ECR(1, 2)
	routed, final, swaps, err := RouteCircuit(dev, adj)
	if err != nil {
		t.Fatal(err)
	}
	if swaps != 0 {
		t.Fatalf("adjacent circuit got %d SWAPs", swaps)
	}
	if routed.CountGates(gates.SWAP) != 0 {
		t.Error("adjacent circuit contains SWAP gates")
	}
	for i, p := range final {
		if p != i {
			t.Fatalf("adjacent circuit permuted wires: %v", final)
		}
	}

	far := circuit.New(4, 1)
	far.AddLayer(circuit.TwoQubitLayer).ECR(0, 2) // distance 2 on the line
	far.AddLayer(circuit.MeasureLayer).Measure(0, 0)
	routed, final, swaps, err = RouteCircuit(dev, far)
	if err != nil {
		t.Fatal(err)
	}
	if swaps != 1 || routed.CountGates(gates.SWAP) != 1 {
		t.Fatalf("distance-2 gate needs exactly 1 SWAP, got %d", swaps)
	}
	// Wire 0 swapped to qubit 1; the ECR must act on (1, 2) and the
	// measurement must follow the wire.
	var ecr, meas circuit.Instruction
	for _, l := range routed.Layers {
		for _, in := range l.Instrs {
			switch in.Gate {
			case gates.ECR:
				ecr = in
			case gates.Measure:
				meas = in
			}
		}
	}
	if ecr.Qubits[0] != 1 || ecr.Qubits[1] != 2 {
		t.Errorf("routed ECR on %v, want (1,2)", ecr.Qubits)
	}
	if final[0] != 1 || meas.Qubits[0] != 1 {
		t.Errorf("wire 0 should end at qubit 1 (final %v, measure %v)", final, meas.Qubits)
	}
}

// TestRoutePreservesSemantics checks the router against the ideal
// simulator via the pass pipeline: a GHZ-like circuit with a non-adjacent
// CX must produce the same measurement distribution routed as the
// hand-legalized equivalent. (Covered cheaply: just validate + schedule.)
func TestRoutedCircuitValidatesAndSchedules(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(dev.NQubits, 0)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 12) // far apart on the lattice
	routed, _, swaps, err := RouteCircuit(dev, c)
	if err != nil {
		t.Fatal(err)
	}
	if swaps == 0 {
		t.Fatal("expected SWAPs for a far pair")
	}
	if err := routed.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := sched.Schedule(routed, dev); d <= 0 {
		t.Error("routed circuit has no duration")
	}
}

// TestSelectAndRoutePasses runs the passes through a real pipeline and
// checks the report fields.
func TestSelectAndRoutePasses(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	pl := pass.New("placed", Select(DefaultOptions()), Route(), pass.Schedule())
	c := pathCircuit(6, 2)
	compiled, rep, err := pl.Apply(dev, rand.New(rand.NewSource(1)), c)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.NQubits != dev.NQubits {
		t.Errorf("compiled circuit on %d qubits, want device size %d", compiled.NQubits, dev.NQubits)
	}
	if len(rep.Layout) != 6 {
		t.Fatalf("report layout %v, want 6 entries", rep.Layout)
	}
	if rep.Swaps != 0 {
		t.Errorf("path workload on heavy-hex should embed without SWAPs, got %d", rep.Swaps)
	}
	seen := map[int]bool{}
	for _, p := range rep.Layout {
		if p < 0 || p >= dev.NQubits || seen[p] {
			t.Fatalf("bad layout %v", rep.Layout)
		}
		seen[p] = true
	}
	// Consecutive logical qubits must sit on coupled physical qubits.
	for l := 0; l+1 < 6; l++ {
		if !dev.HasEdge(rep.Layout[l], rep.Layout[l+1]) {
			t.Errorf("logical %d-%d mapped to uncoupled %d-%d", l, l+1, rep.Layout[l], rep.Layout[l+1])
		}
	}
}

// TestChooseCycleWorkload embeds a 12-ring into the heavy-hex lattice,
// where the smallest cycles are exactly 12 qubits long.
func TestChooseCycleWorkload(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	n := 12
	c := ringProbe()
	pl, err := Choose(dev, c, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < n; l++ {
		if !pl.Sub.HasEdge(pl.ToSub[l], pl.ToSub[(l+1)%n]) {
			t.Fatalf("ring edge %d-%d not adjacent in the embedding %v", l, (l+1)%n, pl.Phys)
		}
	}
	routed, _, swaps, err := pl.MapCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if swaps != 0 {
		t.Errorf("native ring embedding needed %d SWAPs", swaps)
	}
	if err := routed.Validate(); err != nil {
		t.Fatal(err)
	}
}
