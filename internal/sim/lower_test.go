package sim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// lowerStable is Lower with its events put in order by a stable sort by
// time: the reference order that Lower's keyed sort must reproduce.
func (x *Crosstalk) lowerStable(dst *Lowered, l *circuit.Layer) {
	x.emit(dst, l)
	slices.SortStableFunc(dst.Events, func(a, b Event) int { return cmp.Compare(a.T, b.T) })
}

// randomLoweringCircuit draws a scheduled circuit of nLayers layers whose
// events tie and interleave in time: one-qubit layers (H, SX, Y, X, the
// virtual RZ/Z/S/Sdg, ID, delays), twirl layers of Paulis, two-qubit
// layers (ECR, CX and RZZ on a random matching, delays, and dd pulses at
// offsets that coincide with each other and with the gates' start, echo
// and end, or at random offsets), and measure layers.
func randomLoweringCircuit(dev *device.Device, rng *rand.Rand, nLayers int) *circuit.Circuit {
	n := dev.NQubits
	c := circuit.New(n, n)
	start := 0.0
	for li := 0; li < nLayers; li++ {
		var l *circuit.Layer
		dur := 0.0
		switch rng.Intn(4) {
		case 0:
			l = c.AddLayer(circuit.OneQubitLayer)
			if rng.Intn(2) == 0 {
				dur = 35
			}
			for q := 0; q < n; q++ {
				switch rng.Intn(11) {
				case 0:
					l.H(q)
				case 1:
					l.SX(q)
				case 2:
					l.Y(q)
				case 3:
					l.X(q)
				case 4:
					l.RZ(q, (rng.Float64()-0.5)*2*math.Pi)
				case 5:
					l.Z(q)
				case 6:
					l.S(q)
				case 7:
					l.Sdg(q)
				case 8:
					l.Add(circuit.Instruction{Gate: gates.ID, Qubits: []int{q}})
				case 9:
					l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{dur}})
				}
			}
		case 1:
			l = c.AddLayer(circuit.TwirlLayer)
			paulis := []gates.Kind{gates.XGate, gates.YGate, gates.ZGate}
			for q := 0; q < n; q++ {
				if k := rng.Intn(4); k < 3 {
					l.Add(circuit.Instruction{Gate: paulis[k], Qubits: []int{q}, Tag: "twirl"})
				}
			}
		case 2:
			l = c.AddLayer(circuit.TwoQubitLayer)
			dur = []float64{0, 300, 533, 700}[rng.Intn(4)]
			used := make([]bool, n)
			for _, i := range rng.Perm(len(dev.Edges)) {
				e := dev.Edges[i]
				if used[e.A] || used[e.B] || rng.Intn(3) == 0 {
					continue
				}
				used[e.A], used[e.B] = true, true
				switch rng.Intn(3) {
				case 0:
					l.ECR(e.A, e.B)
				case 1:
					l.CX(e.B, e.A)
				default:
					l.RZZ(e.A, e.B, (rng.Float64()-0.5)*math.Pi)
				}
			}
			offsets := []float64{0, dur / 4, dur / 2, 3 * dur / 4, dur}
			for q := 0; q < n; q++ {
				if used[q] {
					continue
				}
				switch rng.Intn(4) {
				case 0:
					l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{dur}})
				case 1, 2:
					for k := rng.Intn(4); k >= 0; k-- {
						at := offsets[rng.Intn(len(offsets))]
						if rng.Intn(3) == 0 {
							at = dur * rng.Float64()
						}
						g := gates.XDD
						if rng.Intn(4) == 0 {
							g = gates.YGate
						}
						l.Add(circuit.Instruction{Gate: g, Qubits: []int{q}, Tag: "dd", Time: at})
					}
				}
			}
		default:
			l = c.AddLayer(circuit.MeasureLayer)
			dur = 1000
			for q := 0; q < n; q++ {
				if rng.Intn(2) == 0 {
					l.Measure(q, q)
				}
			}
		}
		l.Start, l.Duration = start, dur
		start += dur
	}
	return c
}

// FuzzLowerMatchesStableSort lowers random circuits layer after layer into
// one reused Lowered, so scratch left stale by an earlier layer would
// show, and requires every layer's events (every field, the instruction
// by pointer) and masks to equal those of the stable-sort reference
// lowered into a fresh Lowered.
func FuzzLowerMatchesStableSort(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(2), uint8(1))
	f.Add(int64(3), uint8(16))
	dev, err := device.NewBackend("grid16")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, layers uint8) {
		c := randomLoweringCircuit(dev, rand.New(rand.NewSource(seed)), 1+int(layers%24))
		x := NewCrosstalk(dev, c)
		var got Lowered
		for li := range c.Layers {
			var want Lowered
			x.lowerStable(&want, &c.Layers[li])
			x.Lower(&got, &c.Layers[li])
			if got.Start != want.Start || got.Dur != want.Dur {
				t.Fatalf("layer %d: window %v+%v, want %v+%v", li, got.Start, got.Dur, want.Start, want.Dur)
			}
			if !slices.Equal(got.Events, want.Events) {
				t.Fatalf("layer %d (%s): events\n%v\nwant\n%v", li, c.Layers[li].Kind, got.Events, want.Events)
			}
			for _, m := range []struct {
				name      string
				got, want []bool
			}{
				{"Active", got.Active, want.Active},
				{"Driven", got.Driven, want.Driven},
				{"Rotary", got.Rotary, want.Rotary},
				{"GatePair", got.GatePair, want.GatePair},
			} {
				if !slices.Equal(m.got, m.want) {
					t.Fatalf("layer %d: %s mask differs", li, m.name)
				}
			}
		}
	})
}

// TestLowerWarmAllocatesNothing lowers a full 127-qubit ECR layer dressed
// with dd pulses, whose events need the keyed sort, and a one-qubit layer
// already in time order: once a Lowered has walked them, lowering either
// again allocates nothing.
func TestLowerWarmAllocatesNothing(t *testing.T) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New(dev.NQubits, 0)
	oneQ := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < dev.NQubits; q++ {
		oneQ.SX(q)
	}
	oneQ.Duration = 35
	gate := c.AddLayer(circuit.TwoQubitLayer)
	used := make([]bool, dev.NQubits)
	for _, e := range dev.Edges {
		if !used[e.A] && !used[e.B] {
			used[e.A], used[e.B] = true, true
			gate.ECR(e.A, e.B)
		}
	}
	gate.Start, gate.Duration = 35, 533
	for q, u := range used {
		if !u {
			gate.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{q}, Tag: "dd", Time: 133})
			gate.Add(circuit.Instruction{Gate: gates.XDD, Qubits: []int{q}, Tag: "dd", Time: 400})
		}
	}
	x := NewCrosstalk(dev, c)
	var lw Lowered
	for li := range c.Layers {
		x.Lower(&lw, &c.Layers[li])
	}
	if len(lw.keys) == 0 {
		t.Fatal("the gate layer did not take the keyed sort")
	}
	for li := range c.Layers {
		l := &c.Layers[li]
		if a := testing.AllocsPerRun(20, func() { x.Lower(&lw, l) }); a != 0 {
			t.Errorf("lowering the warmed %s layer: %v allocations, want 0", l.Kind, a)
		}
	}
}
