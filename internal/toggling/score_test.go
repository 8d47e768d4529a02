package toggling

import (
	"math"
	"sort"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// scheduleFixture builds a small scheduled workload with every feature the
// scorer must model: ECR internal echoes and rotary targets, DD and twirl
// pulses, an RZZ frame-restoring echo, bare idles, and a measure layer.
func scheduleFixture(t *testing.T) (*device.Device, *circuit.Circuit) {
	t.Helper()
	opts := device.DefaultOptions()
	opts.Seed = 21
	dev := device.NewLine("score6", 6, opts)
	c := circuit.New(6, 1)
	l0 := c.AddLayer(circuit.OneQubitLayer)
	l0.H(0)
	l0.SX(3)
	l0.Duration = dev.Dur1Q
	l1 := c.AddLayer(circuit.TwoQubitLayer)
	l1.ECR(0, 1)
	l1.ECR(4, 5)
	l1.Duration = dev.DurECR
	l2 := c.AddLayer(circuit.TwoQubitLayer)
	l2.RZZ(2, 3, 0.3)
	l2.Duration = dev.DurECR
	l3 := c.AddLayer(circuit.OneQubitLayer)
	l3.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{800}})
	l3.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{1}, Time: 200, Tag: "dd"})
	l3.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{1}, Time: 600, Tag: "dd"})
	l3.Add(circuit.Instruction{Gate: gates.XGate, Qubits: []int{2}, Time: 400, Tag: "twirl"})
	l3.Duration = 800
	l4 := c.AddLayer(circuit.MeasureLayer)
	l4.Measure(0, 0)
	l4.Duration = dev.DurMeas
	return dev, c
}

// referenceScore is the exact score through the map reference:
// BuildLayerModel + Integrate per layer, magnitudes summed in sorted key
// order.
func referenceScore(dev *device.Device, c *circuit.Circuit) float64 {
	tot := 0.0
	for i := range c.Layers {
		m := BuildLayerModel(&c.Layers[i], dev)
		r := Integrate(m, dev, true)
		qs := make([]int, 0, len(r.PhiZ))
		for q := range r.PhiZ {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		for _, q := range qs {
			tot += math.Abs(r.PhiZ[q])
		}
		es := make([]device.Edge, 0, len(r.PhiZZ))
		for e := range r.PhiZZ {
			es = append(es, e)
		}
		sort.Slice(es, func(i, j int) bool {
			if es[i].A != es[j].A {
				return es[i].A < es[j].A
			}
			return es[i].B < es[j].B
		})
		for _, e := range es {
			tot += math.Abs(r.PhiZZ[e])
		}
	}
	return tot
}

// TestScorerMatchesIntegrate pins ScoreCircuit against the map reference
// on the full fixture: identical angles, only the float summation order may
// differ (tolerance scales with the total).
func TestScorerMatchesIntegrate(t *testing.T) {
	dev, c := scheduleFixture(t)
	want := referenceScore(dev, c)
	s := NewIntegrator(dev)
	got := s.ScoreCircuit(c)
	if want == 0 {
		t.Fatal("fixture produces a zero score; broken fixture")
	}
	if rel := math.Abs(got-want) / want; rel > 1e-12 {
		t.Fatalf("scorer %.15g vs integrate %.15g (rel %.2g)", got, want, rel)
	}
}

// TestScorerRepeatBitIdentical pins that repeated scoring through the same
// scratch is bit-identical — the layout argmin depends on it.
func TestScorerRepeatBitIdentical(t *testing.T) {
	dev, c := scheduleFixture(t)
	s := NewIntegrator(dev)
	first := s.ScoreCircuit(c)
	for i := 0; i < 10; i++ {
		if got := s.ScoreCircuit(c); got != first {
			t.Fatalf("iteration %d: %v != %v", i, got, first)
		}
	}
	if fresh := NewIntegrator(dev).ScoreCircuit(c); fresh != first {
		t.Fatalf("fresh scorer %v != reused %v", fresh, first)
	}
}

// TestScorerZeroAlloc pins the scoring inner loop and one layer's
// integration at zero steady-state allocations: Choose exact-scores dozens
// of candidates per call on a worker pool, CA-EC integrates every layer of
// every twirl instance, and per-layer map churn was the hot path of both.
func TestScorerZeroAlloc(t *testing.T) {
	dev, c := scheduleFixture(t)
	s := NewIntegrator(dev)
	s.ScoreCircuit(c) // warm the scratch buffers
	avg := testing.AllocsPerRun(100, func() {
		s.ScoreCircuit(c)
	})
	if avg != 0 {
		t.Fatalf("scoring inner loop allocates %.1f times per circuit, want 0", avg)
	}
	collapsed := make([]bool, dev.NQubits)
	collapsed[0] = true
	for i := range c.Layers {
		l := &c.Layers[i]
		if avg := testing.AllocsPerRun(100, func() { s.Integrate(l, false, collapsed) }); avg != 0 {
			t.Fatalf("integrating layer %d allocates %.1f times, want 0", i, avg)
		}
	}
}

// TestScorerZeroDurationLayer pins the Duration<=0 guard of Integrate.
func TestScorerZeroDurationLayer(t *testing.T) {
	dev, _ := scheduleFixture(t)
	c := circuit.New(6, 0)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.ECR(0, 1) // never scheduled: Duration stays 0
	if got := NewIntegrator(dev).ScoreCircuit(c); got != 0 {
		t.Fatalf("unscheduled layer scored %v, want 0", got)
	}
}
