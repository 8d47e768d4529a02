package pass

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/twirl"
)

// compiledPin is the SHA-256 of every circuit and report that
// TestCompiledCircuitsPinned compiles: each layer's kind and timing, each
// instruction's fields with parameters by their bits, the DD windows with
// their colours, Walsh rows and pulse counts, and the CA-EC statistics. A
// change to any pass that moves one instruction, one angle bit or one
// colour changes it.
const compiledPin = "98458cc78151c267ae90f039f878e6871f046593a7575cf8bd66b2f21892da68"

// pinPipelines are the seven named strategies.
func pinPipelines() []Pipeline {
	return []Pipeline{Bare(), Twirled(), WithDD(dd.Aligned), WithDD(dd.Staggered), CADD(), CAEC(), Combined()}
}

// randomPinCircuit draws a seeded circuit: alternating two-qubit layers
// (ECR, CX, RZZ at an arbitrary angle, or Ucan on a random matching of the
// coupling graph, with delays on some idle qubits) and one-qubit layers
// (H, SX, S, Y or RZ on a random subset), then a measurement of every
// qubit.
func randomPinCircuit(dev *device.Device, rng *rand.Rand, depth int) *circuit.Circuit {
	n := dev.NQubits
	c := circuit.New(n, n)
	delay := func(l *circuit.Layer, q int) {
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{100 + 900*rng.Float64()}})
	}
	used := make([]bool, n)
	for d := 0; d < depth; d++ {
		if d%2 == 1 {
			l := c.AddLayer(circuit.TwoQubitLayer)
			clear(used)
			for _, i := range rng.Perm(len(dev.Edges)) {
				e := dev.Edges[i]
				if used[e.A] || used[e.B] || rng.Intn(2) == 0 {
					continue
				}
				used[e.A], used[e.B] = true, true
				a, b := e.A, e.B
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				switch rng.Intn(4) {
				case 0:
					l.ECR(a, b)
				case 1:
					l.CX(a, b)
				case 2:
					l.RZZ(a, b, (rng.Float64()-0.5)*math.Pi)
				default:
					l.Ucan(a, b, rng.Float64(), rng.Float64(), rng.Float64())
				}
			}
			for q := 0; q < n; q++ {
				if !used[q] && rng.Intn(3) == 0 {
					delay(l, q)
				}
			}
			continue
		}
		l := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < n; q++ {
			switch rng.Intn(6) {
			case 0:
				l.H(q)
			case 1:
				l.SX(q)
			case 2:
				l.S(q)
			case 3:
				l.Y(q)
			case 4:
				l.RZ(q, rng.Float64()*2*math.Pi)
			}
		}
	}
	m := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < n; q++ {
		m.Measure(q, q)
	}
	return c
}

// feedForwardCircuit measures qubit 1 of a line mid-circuit and conditions
// an X on its neighbour, so CA-EC emits measurement-conditioned
// corrections and then skips the collapsed qubit's edges.
func feedForwardCircuit(dev *device.Device) *circuit.Circuit {
	c := circuit.New(dev.NQubits, 1)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(2).H(3).H(4)
	c.AddLayer(circuit.TwoQubitLayer).CX(0, 1).ECR(3, 4)
	c.AddLayer(circuit.TwoQubitLayer).CX(2, 1)
	c.AddLayer(circuit.MeasureLayer).Measure(1, 0)
	ff := c.AddLayer(circuit.OneQubitLayer)
	ff.Add(circuit.Instruction{Gate: gates.XGate, Qubits: []int{2}, Cond: &circuit.Condition{Bit: 0, Value: 1}, Time: dev.DurFF})
	ff.SX(4)
	c.AddLayer(circuit.TwoQubitLayer).ECR(2, 3)
	c.AddLayer(circuit.TwoQubitLayer).CX(3, 4)
	return c
}

// absorbCircuit leaves pairs idle next to gates and then drives them with
// RZZ, Ucan and CX, so pending ZZ is absorbed into the RZZ and Ucan angles
// and converted through the CX into a virtual Rz.
func absorbCircuit(dev *device.Device) *circuit.Circuit {
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < dev.NQubits; q++ {
		prep.H(q)
	}
	for s := 0; s < 3; s++ {
		a := c.AddLayer(circuit.TwoQubitLayer)
		a.Ucan(0, 1, -0.2, -0.2, -0.2).RZZ(2, 3, 0.4)
		b := c.AddLayer(circuit.TwoQubitLayer)
		b.Ucan(1, 2, -0.2, -0.2, -0.2).RZZ(4, 5, -0.7)
		d := c.AddLayer(circuit.TwoQubitLayer)
		d.CX(0, 1).CX(3, 2)
		x := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < dev.NQubits; q++ {
			x.X(q)
		}
	}
	return c
}

// idleCollisionCircuit idles every qubit of a device with an NNN collision
// beside one gate, so CA-DD colours the collision edge and CA-EC
// compensates it.
func idleCollisionCircuit(dev *device.Device) *circuit.Circuit {
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < dev.NQubits; q++ {
		prep.H(q)
	}
	for s := 0; s < 3; s++ {
		l := c.AddLayer(circuit.TwoQubitLayer)
		e := dev.Edges[s%len(dev.Edges)]
		dir := dev.ECRDir[e]
		l.ECR(dir.Src, dir.Dst)
		for q := 0; q < dev.NQubits; q++ {
			if q != e.A && q != e.B {
				l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{1200}})
			}
		}
	}
	return c
}

// hashCompiled folds a compiled circuit and its report into h.
func hashCompiled(h hash.Hash, c *circuit.Circuit, rep Report) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	putS := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	put(uint64(c.NQubits))
	put(uint64(c.NCBits))
	put(uint64(len(c.Layers)))
	for li := range c.Layers {
		l := &c.Layers[li]
		put(uint64(l.Kind))
		putF(l.Start)
		putF(l.Duration)
		put(uint64(len(l.Instrs)))
		for ii := range l.Instrs {
			in := &l.Instrs[ii]
			putS(string(in.Gate))
			put(uint64(len(in.Qubits)))
			for _, q := range in.Qubits {
				put(uint64(q))
			}
			put(uint64(len(in.Params)))
			for _, p := range in.Params {
				putF(p)
			}
			put(uint64(in.CBit))
			if in.Cond != nil {
				put(1)
				put(uint64(in.Cond.Bit))
				put(uint64(in.Cond.Value))
			} else {
				put(0)
			}
			putS(in.Tag)
			putF(in.Time)
		}
	}
	inQubitOrder := func(m map[int]int) {
		qs := make([]int, 0, len(m))
		for q := range m {
			qs = append(qs, q)
		}
		slices.Sort(qs)
		put(uint64(len(qs)))
		for _, q := range qs {
			put(uint64(q))
			put(uint64(m[q]))
		}
	}
	put(uint64(len(rep.DD.Windows)))
	for _, w := range rep.DD.Windows {
		putF(w.Window.Start)
		putF(w.Window.End)
		put(uint64(len(w.Window.Qubits)))
		for _, q := range w.Window.Qubits {
			put(uint64(q))
		}
		inQubitOrder(w.Colors)
		inQubitOrder(w.Rows)
		put(uint64(w.Pulses))
	}
	put(uint64(rep.DD.Total))
	ec := rep.EC
	for _, v := range []int{ec.VirtualRZ, ec.AbsorbedUcan, ec.AbsorbedCX, ec.InsertedRZZ, ec.Conditional, ec.SignFlips, ec.Dropped} {
		put(uint64(v))
	}
	putF(ec.DroppedAngles)
	putF(rep.Duration)
}

// TestCompiledCircuitsPinned compiles seeded random circuits on four
// backends up to the full 127-qubit device, plus fixtures that reach
// CA-EC's feed-forward, absorption, CX-conversion and NNN-collision paths,
// through the seven named pipelines under both twirl scopes, and pins
// every compiled circuit and report. The stab pin cannot stand in for it:
// CA-EC leaves most circuits non-Clifford, so there only its error text is
// hashed.
func TestCompiledCircuitsPinned(t *testing.T) {
	type job struct {
		dev  *device.Device
		c    *circuit.Circuit
		seed int64
	}
	var jobs []job
	backend := func(name string) *device.Device {
		dev, err := device.NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	for _, name := range []string{"line6", "grid16", "heavyhex29", "eagle127"} {
		dev := backend(name)
		for seed := int64(1); seed <= 3; seed++ {
			jobs = append(jobs, job{dev, randomPinCircuit(dev, rand.New(rand.NewSource(seed)), 8), seed})
		}
	}
	line := backend("line6")
	jobs = append(jobs, job{line, feedForwardCircuit(line), 5}, job{line, absorbCircuit(line), 6})
	frag := backend("hexfrag6")
	if len(frag.NNNEdges) == 0 {
		t.Fatal("hexfrag6 has no NNN collision")
	}
	jobs = append(jobs, job{frag, idleCollisionCircuit(frag), 7})

	h := sha256.New()
	var total Report
	for _, jb := range jobs {
		for _, scope := range []twirl.Scope{twirl.GatesOnly, twirl.AllQubits} {
			for _, pl := range pinPipelines() {
				pl = pl.WithTwirlScope(scope)
				out, rep, err := pl.Apply(jb.dev, rand.New(rand.NewSource(jb.seed)), jb.c)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", jb.dev.Name, jb.seed, pl, err)
				}
				hashCompiled(h, out, rep)
				total.DD.Total += rep.DD.Total
				s, d := &total.EC, rep.EC
				s.VirtualRZ += d.VirtualRZ
				s.AbsorbedUcan += d.AbsorbedUcan
				s.AbsorbedCX += d.AbsorbedCX
				s.InsertedRZZ += d.InsertedRZZ
				s.Conditional += d.Conditional
				s.SignFlips += d.SignFlips
				s.Dropped += d.Dropped
			}
		}
	}
	// Every path the pin claims to cover must have run.
	ec := total.EC
	for name, n := range map[string]int{
		"DD pulses": total.DD.Total, "virtual Rz": ec.VirtualRZ, "Ucan/RZZ absorptions": ec.AbsorbedUcan,
		"CX conversions": ec.AbsorbedCX, "RZZ corrections": ec.InsertedRZZ, "conditional corrections": ec.Conditional,
		"sign flips": ec.SignFlips, "dropped angles": ec.Dropped,
	} {
		if n == 0 {
			t.Errorf("no %s in any compile; the pin does not cover that path", name)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compiledPin {
		t.Errorf("compiled circuits hash to %s, want %s", got, compiledPin)
	}
}
