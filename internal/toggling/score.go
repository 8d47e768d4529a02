package toggling

import (
	"math"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// Scorer computes the layout stage's exact predicted-error score — the sum
// of |phiZ| and |phiZZ| toggling-frame angles over every layer — with
// reusable per-device scratch instead of the per-layer map allocation of
// Integrate. The layout search exact-scores dozens of candidates per
// Choose call on a worker pool, so the steady-state inner loop here is
// allocation-free (pinned by TestScorerZeroAlloc) and every accumulation
// runs in a fixed canonical order (edges in the cached crosstalk order,
// Stark sources by ascending qubit), making the score bit-deterministic
// across runs and worker counts.
//
// Scorer and IntegrateFiltered share signIntegral/pairIntegral, so the
// angles agree with the compensation passes' view of the same schedule.
// Both add ZZ terms in crosstalk-edge order and Stark shifts by ascending
// source qubit, so only the accumulation container (slices vs maps)
// differs.
type Scorer struct {
	dev   *device.Device
	edges []device.Edge // crosstalk edges with nonzero ZZ, canonical order
	wZZ   []float64     // 2*pi*ZZ*1e-9 per cached edge
	eIdx  map[device.Edge]int

	stark [][]starkTerm // per source qubit, targets sorted ascending

	// Per-layer scratch, reset between layers.
	sched    []qubitScratch
	touched  []int  // qubits with layer state to reset
	gateMask []bool // per cached edge: intra-gate this layer
	gateHit  []int  // cached edge indices to reset
	phiZ     []float64
	times    []float64 // pairIntegral merge buffer
}

type starkTerm struct {
	dst int
	w   float64 // 2*pi*Stark*1e-9
}

// qubitScratch mirrors QubitSchedule with a reusable pulse buffer plus the
// driven flag the Stark loop needs.
type qubitScratch struct {
	pulses  []float64
	rotary  bool
	active  bool
	driven  bool
	touched bool
}

// NewScorer builds a scorer bound to one device, caching the crosstalk
// edge tables and Stark adjacency so repeated ScoreCircuit calls allocate
// nothing.
func NewScorer(dev *device.Device) *Scorer {
	s := &Scorer{
		dev:      dev,
		eIdx:     map[device.Edge]int{},
		sched:    make([]qubitScratch, dev.NQubits),
		gateMask: nil,
		phiZ:     make([]float64, dev.NQubits),
		stark:    make([][]starkTerm, dev.NQubits),
	}
	const nsToS = 1e-9
	for _, e := range dev.AllCrosstalkEdges() {
		w := 2 * math.Pi * dev.ZZ[e] * nsToS
		if w == 0 {
			continue
		}
		s.eIdx[e] = len(s.edges)
		s.edges = append(s.edges, e)
		s.wZZ = append(s.wZZ, w)
	}
	s.gateMask = make([]bool, len(s.edges))
	for src := 0; src < dev.NQubits; src++ {
		for _, dst := range dev.Neighbors(src) { // sorted ascending
			w := 2 * math.Pi * dev.Stark[device.Directed{Src: src, Dst: dst}] * nsToS
			if w != 0 {
				s.stark[src] = append(s.stark[src], starkTerm{dst, w})
			}
		}
	}
	return s
}

// ScoreCircuit returns the total predicted coherent error (radians) of a
// scheduled circuit on the scorer's device: per layer, the magnitudes of
// every surviving phiZ and phiZZ angle above the Integrate noise floor,
// Stark included.
func (s *Scorer) ScoreCircuit(c *circuit.Circuit) float64 {
	tot := 0.0
	for i := range c.Layers {
		tot += s.scoreLayer(&c.Layers[i])
	}
	return tot
}

// scoreLayer builds the layer's pulse model into the scratch and
// integrates it. It mirrors BuildLayerModel + IntegrateFiltered(includeStark)
// exactly, minus the map containers.
func (s *Scorer) scoreLayer(l *circuit.Layer) float64 {
	s.reset()
	for ii := range l.Instrs {
		in := &l.Instrs[ii]
		if in.Cond != nil {
			continue
		}
		switch {
		case gates.NumQubits(in.Gate) == 2:
			c, t := in.Qubits[0], in.Qubits[1]
			sc, st := s.touch(c), s.touch(t)
			sc.active, st.active = true, true
			sc.pulses = append(sc.pulses, l.Duration/2) // internal echo
			if in.Gate == gates.RZZ {
				sc.pulses = append(sc.pulses, l.Duration)
			}
			st.rotary = true
			sc.driven, st.driven = true, true
			if idx, ok := s.eIdx[device.NewEdge(c, t)]; ok {
				if !s.gateMask[idx] {
					s.gateMask[idx] = true
					s.gateHit = append(s.gateHit, idx)
				}
			}
		case in.Gate == gates.XGate || in.Gate == gates.YGate || in.Gate == gates.XDD:
			q := s.touch(in.Qubits[0])
			q.pulses = append(q.pulses, in.Time)
			if in.Tag != "dd" && in.Tag != "twirl" {
				q.active = true
			}
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
			// no effect
		default:
			if len(in.Qubits) == 1 {
				s.touch(in.Qubits[0]).active = true
			}
		}
	}
	for _, q := range s.touched {
		sortFloats(s.sched[q].pulses)
	}

	if l.Duration <= 0 {
		return 0
	}
	T := l.Duration
	const eps = 1e-12
	tot := 0.0
	for i, e := range s.edges {
		if s.gateMask[i] {
			continue
		}
		w := s.wZZ[i]
		a, b := &s.sched[e.A], &s.sched[e.B]
		if !a.rotary && !b.rotary {
			if zz := w * s.pairIntegral(a.pulses, b.pulses, T); math.Abs(zz) >= eps {
				tot += math.Abs(zz)
			}
		}
		if !a.rotary {
			s.phiZ[e.A] -= w * signIntegral(a.pulses, T)
		}
		if !b.rotary {
			s.phiZ[e.B] -= w * signIntegral(b.pulses, T)
		}
	}
	// Stark shifts from driven qubits onto idle neighbors, sources in
	// ascending order as in IntegrateFiltered; the fixed order is what
	// makes the layout argmin bit-stable.
	for src := 0; src < len(s.sched); src++ {
		if !s.sched[src].driven {
			continue
		}
		for _, st := range s.stark[src] {
			nb := &s.sched[st.dst]
			if nb.active || nb.rotary {
				continue
			}
			s.phiZ[st.dst] += st.w * signIntegral(nb.pulses, T)
		}
	}
	for q := 0; q < len(s.phiZ); q++ {
		if v := s.phiZ[q]; math.Abs(v) >= eps {
			tot += math.Abs(v)
		}
	}
	return tot
}

// touch returns the scratch of q, marking it for reset.
func (s *Scorer) touch(q int) *qubitScratch {
	qs := &s.sched[q]
	if !qs.touched {
		qs.touched = true
		s.touched = append(s.touched, q)
	}
	return qs
}

// reset clears the previous layer's scratch without releasing buffers.
func (s *Scorer) reset() {
	for _, q := range s.touched {
		qs := &s.sched[q]
		qs.pulses = qs.pulses[:0]
		qs.rotary, qs.active, qs.driven, qs.touched = false, false, false, false
	}
	s.touched = s.touched[:0]
	for _, i := range s.gateHit {
		s.gateMask[i] = false
	}
	s.gateHit = s.gateHit[:0]
	for i := range s.phiZ {
		s.phiZ[i] = 0
	}
}

// pairIntegral is the package pairIntegral over a reused merge buffer.
func (s *Scorer) pairIntegral(pa, pb []float64, T float64) float64 {
	s.times = s.times[:0]
	s.times = append(s.times, pa...)
	s.times = append(s.times, pb...)
	sortFloats(s.times)
	sa, sb := 1.0, 1.0
	ia, ib := 0, 0
	integral := 0.0
	prev := 0.0
	for _, t := range s.times {
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
	if (len(pa)+len(pb))%2 == 1 {
		return -integral
	}
	return integral
}

// sortFloats is an allocation-free insertion sort: pulse lists are tiny
// (a handful of DD/echo pulses), where it beats the generic sort anyway.
func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		v := x[i]
		j := i - 1
		for j >= 0 && x[j] > v {
			x[j+1] = x[j]
			j--
		}
		x[j+1] = v
	}
}
