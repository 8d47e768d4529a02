package toggling

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// The map-based integrator below is the one CA-EC used before the
// Integrator replaced it. It is kept as the reference the Integrator is
// checked against: it builds a per-layer model of maps, shares no scratch
// with the Integrator, and reads the device's neighbours through
// Device.Neighbors.

// QubitSchedule is the pulse activity of one qubit within a layer.
type QubitSchedule struct {
	Pulses []float64 // pulse times relative to layer start, sorted
	Rotary bool      // qubit is the target of an ECR (rotary echo active)
	Active bool      // qubit participates in a gate this layer
}

// LayerModel is the context of one layer as seen by the toggling
// calculation.
type LayerModel struct {
	Duration  float64
	Sched     map[int]*QubitSchedule
	GatePairs map[device.Edge]bool // intra-gate edges, calibrated away
	Driven    map[int]bool         // qubits whose drive Stark-shifts neighbors
}

// BuildLayerModel extracts the pulse/context model from a scheduled layer.
func BuildLayerModel(l *circuit.Layer, dev *device.Device) *LayerModel {
	m := &LayerModel{
		Duration:  l.Duration,
		Sched:     map[int]*QubitSchedule{},
		GatePairs: map[device.Edge]bool{},
		Driven:    map[int]bool{},
	}
	get := func(q int) *QubitSchedule {
		if s, ok := m.Sched[q]; ok {
			return s
		}
		s := &QubitSchedule{}
		m.Sched[q] = s
		return s
	}
	for _, in := range l.Instrs {
		if in.Cond != nil {
			continue
		}
		switch {
		case gates.NumQubits(in.Gate) == 2:
			c, t := in.Qubits[0], in.Qubits[1]
			sc, st := get(c), get(t)
			sc.Active, st.Active = true, true
			sc.Pulses = append(sc.Pulses, l.Duration/2) // internal echo
			if in.Gate == gates.RZZ {
				// Pulse-stretched RZZ uses a frame-restoring X2 echo.
				sc.Pulses = append(sc.Pulses, l.Duration)
			}
			st.Rotary = true
			m.GatePairs[device.NewEdge(c, t)] = true
			m.Driven[c] = true
			m.Driven[t] = true
		case in.Gate == gates.XGate || in.Gate == gates.YGate || in.Gate == gates.XDD:
			s := get(in.Qubits[0])
			s.Pulses = append(s.Pulses, in.Time)
			if in.Tag != "dd" && in.Tag != "twirl" {
				s.Active = true
			}
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
			// no effect
		default:
			if len(in.Qubits) == 1 {
				get(in.Qubits[0]).Active = true
			}
		}
	}
	for _, s := range m.Sched {
		sort.Float64s(s.Pulses)
	}
	return m
}

// pairIntegral returns Int_0^T s_a(t) s_b(t) dt.
func pairIntegral(pa, pb []float64, T float64) float64 {
	times := make([]float64, 0, len(pa)+len(pb)+2)
	times = append(times, pa...)
	times = append(times, pb...)
	sort.Float64s(times)
	sa, sb := 1.0, 1.0
	ia, ib := 0, 0
	integral := 0.0
	prev := 0.0
	for _, t := range times {
		integral += sa * sb * (t - prev)
		prev = t
		for ia < len(pa) && pa[ia] == t {
			sa = -sa
			ia++
		}
		for ib < len(pb) && pb[ib] == t {
			sb = -sb
			ib++
		}
	}
	integral += sa * sb * (T - prev)
	parity := 1.0
	if (len(pa)+len(pb))%2 == 1 {
		parity = -1
	}
	return integral * parity
}

// Result holds the surviving coherent error angles after the layer.
type Result struct {
	PhiZ  map[int]float64         // Rz(theta) error per qubit
	PhiZZ map[device.Edge]float64 // Rzz(theta) error per edge
}

// Integrate computes the surviving error angles of a layer.
func Integrate(m *LayerModel, dev *device.Device, includeStark bool) Result {
	return IntegrateFiltered(m, dev, includeStark, nil)
}

// IntegrateFiltered is Integrate with an optional edge filter: crosstalk
// edges for which skip returns true contribute nothing.
func IntegrateFiltered(m *LayerModel, dev *device.Device, includeStark bool, skip func(device.Edge) bool) Result {
	res := Result{PhiZ: map[int]float64{}, PhiZZ: map[device.Edge]float64{}}
	if m.Duration <= 0 {
		return res
	}
	T := m.Duration
	pulsesOf := func(q int) ([]float64, bool, bool) {
		if s, ok := m.Sched[q]; ok {
			return s.Pulses, s.Rotary, s.Active
		}
		return nil, false, false
	}
	const nsToS = 1e-9
	for _, e := range dev.AllCrosstalkEdges() {
		if m.GatePairs[e] || (skip != nil && skip(e)) {
			continue
		}
		w := 2 * math.Pi * dev.ZZ[e] * nsToS
		if w == 0 {
			continue
		}
		pa, rotA, _ := pulsesOf(e.A)
		pb, rotB, _ := pulsesOf(e.B)
		if !rotA && !rotB {
			if zz := w * pairIntegral(pa, pb, T); zz != 0 {
				res.PhiZZ[e] += zz
			}
		}
		if !rotA {
			res.PhiZ[e.A] -= w * signIntegral(pa, T)
		}
		if !rotB {
			res.PhiZ[e.B] -= w * signIntegral(pb, T)
		}
	}
	if includeStark {
		srcs := make([]int, 0, len(m.Driven))
		for src := range m.Driven {
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		for _, src := range srcs {
			for _, nb := range dev.Neighbors(src) {
				pn, rotN, activeN := pulsesOf(nb)
				if activeN || rotN {
					continue
				}
				w := 2 * math.Pi * dev.Stark[device.Directed{Src: src, Dst: nb}] * nsToS
				if w == 0 {
					continue
				}
				res.PhiZ[nb] += w * signIntegral(pn, T)
			}
		}
	}
	const eps = 1e-12
	for q, v := range res.PhiZ {
		if math.Abs(v) < eps {
			delete(res.PhiZ, q)
		}
	}
	for e, v := range res.PhiZZ {
		if math.Abs(v) < eps {
			delete(res.PhiZZ, e)
		}
	}
	return res
}

// result returns the integrator's nonzero angles in the reference's map
// form: an angle the reference drops reads 0 in the integrator.
func (s *Integrator) result() Result {
	res := Result{PhiZ: map[int]float64{}, PhiZZ: map[device.Edge]float64{}}
	for q, v := range s.PhiZ {
		if v != 0 {
			res.PhiZ[q] = v
		}
	}
	for i, v := range s.PhiZZ {
		if v != 0 {
			res.PhiZZ[s.Edges[i]] = v
		}
	}
	return res
}

// fuzzDevice synthesizes a small device: a line, ring or grid with NNN
// collisions, some couplers' ZZ overridden to zero, and some NNN
// collisions and Stark shifts zero too.
func fuzzDevice(rng *rand.Rand) *device.Device {
	var topo device.Topology
	switch rng.Intn(3) {
	case 0:
		topo = device.LineTopology("fz", 2+rng.Intn(7))
	case 1:
		topo = device.RingTopology("fz", 3+rng.Intn(6))
	default:
		topo = device.GridTopology("fz", 2+rng.Intn(2), 2+rng.Intn(2))
	}
	topo.NNN = device.SampleCollisions(topo, rng.Int63(), 0.4)
	opts := device.DefaultOptions()
	opts.Seed = rng.Int63()
	if rng.Intn(3) == 0 {
		opts.NNNCollision = 0
	}
	for _, c := range topo.Couplers {
		if rng.Intn(4) == 0 {
			opts.ZZOverride = append(opts.ZZOverride, device.EdgeRate{A: c.Src, B: c.Dst, Hz: 0})
		}
	}
	dev := device.Synthesize(topo, opts)
	for k := range dev.Stark {
		if rng.Intn(5) == 0 {
			dev.Stark[k] = 0
		}
	}
	return dev
}

// fuzzLayer draws a layer of ECR, CX and RZZ gates on random couplers and
// NNN pairs, X, Y and XDD pulses tagged dd, twirl or not at random times
// (some on a coarse grid, so pulses coincide), RZ, SX, delays and
// conditional gates. Operands may repeat; the integrator does not require
// a valid layer.
func fuzzLayer(dev *device.Device, rng *rand.Rand) *circuit.Layer {
	n := dev.NQubits
	l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
	switch rng.Intn(8) {
	case 0:
		l.Duration = 0
	case 1:
		l.Duration = -rng.Float64()
	default:
		l.Duration = 100 + 2000*rng.Float64()
	}
	T := l.Duration
	at := func() float64 {
		if rng.Intn(2) == 0 {
			return math.Abs(T) * float64(rng.Intn(5)) / 4
		}
		return math.Abs(T) * rng.Float64()
	}
	pairs := append(append([]device.Edge(nil), dev.Edges...), dev.NNNEdges...)
	for k := rng.Intn(1 + n); k > 0; k-- {
		in := circuit.Instruction{}
		switch rng.Intn(9) {
		case 0, 1, 2:
			e := pairs[rng.Intn(len(pairs))]
			a, b := e.A, e.B
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			in.Qubits = []int{a, b}
			in.Gate = []gates.Kind{gates.ECR, gates.CX, gates.RZZ}[rng.Intn(3)]
			if in.Gate == gates.RZZ {
				in.Params = []float64{rng.Float64()}
			}
		case 3, 4, 5:
			in.Gate = []gates.Kind{gates.XGate, gates.YGate, gates.XDD}[rng.Intn(3)]
			in.Qubits = []int{rng.Intn(n)}
			in.Tag = []string{"dd", "twirl", ""}[rng.Intn(3)]
			in.Time = at()
		case 6:
			in.Gate = gates.RZ
			in.Qubits = []int{rng.Intn(n)}
			in.Params = []float64{rng.Float64()}
		case 7:
			in.Gate = gates.Delay
			in.Qubits = []int{rng.Intn(n)}
			in.Params = []float64{at()}
		default:
			in.Gate = gates.SX
			in.Qubits = []int{rng.Intn(n)}
		}
		if rng.Intn(8) == 0 {
			in.Cond = &circuit.Condition{Bit: 0, Value: 1}
		}
		l.Instrs = append(l.Instrs, in)
	}
	return l
}

// FuzzIntegratorMatchesReference integrates random layers on random small
// devices with one Integrator and with the map reference, under random
// collapsed masks with Stark on and off, and requires every phiZ and
// phiZZ to have the same bits. Both apply the 1e-12 noise floor: the
// reference by deleting entries, the Integrator by zeroing them.
func FuzzIntegratorMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		dev := fuzzDevice(rng)
		in := NewIntegrator(dev)
		collapsed := make([]bool, dev.NQubits)
		for layer := 0; layer < 4; layer++ {
			l := fuzzLayer(dev, rng)
			includeStark := rng.Intn(2) == 0
			var mask []bool
			if rng.Intn(2) == 0 {
				for q := range collapsed {
					collapsed[q] = rng.Intn(4) == 0
				}
				mask = collapsed
			}
			in.Integrate(l, includeStark, mask)
			want := IntegrateFiltered(BuildLayerModel(l, dev), dev, includeStark, func(e device.Edge) bool {
				return mask != nil && (mask[e.A] || mask[e.B])
			})
			for q, got := range in.PhiZ {
				if math.Float64bits(got) != math.Float64bits(want.PhiZ[q]) {
					t.Fatalf("layer %d (stark %v, mask %v): phiZ[%d] = %v, reference %v\n%+v",
						layer, includeStark, mask, q, got, want.PhiZ[q], l)
				}
			}
			for i, got := range in.PhiZZ {
				e := in.Edges[i]
				if math.Float64bits(got) != math.Float64bits(want.PhiZZ[e]) {
					t.Fatalf("layer %d (stark %v, mask %v): phiZZ%v = %v, reference %v\n%+v",
						layer, includeStark, mask, e, got, want.PhiZZ[e], l)
				}
			}
			if got := in.result(); len(got.PhiZ) != len(want.PhiZ) || len(got.PhiZZ) != len(want.PhiZZ) {
				t.Fatalf("layer %d: %d phiZ and %d phiZZ angles, reference %d and %d",
					layer, len(got.PhiZ), len(got.PhiZZ), len(want.PhiZ), len(want.PhiZZ))
			}
		}
	})
}
