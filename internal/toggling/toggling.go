// Package toggling computes the coherent Z/ZZ error angles that survive a
// circuit layer given its pulse schedule — the toggling-frame integrals that
// both the CA-EC pass (to know what to compensate) and the layout search
// (to score a placement) rely on.
//
// For a layer spanning [0, T], each qubit carries a sign function s_q(t)
// that flips at every pi pulse on q (DD pulses, twirl X/Y Paulis, and the
// internal echo of an ECR control at T/2). Using the suffix convention
// (s_q(t) = parity of the pulses in (t, T]), the error unitary that acts
// after the layer's ideal gates is
//
//	E = Rzz(phiZZ) * prod_q Rz(phiZ_q),
//	phiZZ(a,b) =  omega_ab * Int s_a s_b dt,
//	phiZ(q)    = -sum_b omega_qb * Int s_q dt  (+ Stark and other Z terms),
//
// matching the idle-pair Hamiltonian H11 = nu/2 (ZZ - ZI - IZ) of paper
// Eq. 1. Terms involving a rotary-echoed ECR target are suppressed to zero
// (the compiler's ideal model; the simulator keeps a small configurable
// residual).
package toggling

import (
	"cmp"
	"math"
	"slices"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// eps is the noise floor: angles below it read 0, so the EC pass does not
// chase noise-floor angles.
const eps = 1e-12

// Integrator integrates layers on one device. It builds the device's
// crosstalk tables once and keeps per-layer scratch, so a warm integrator
// allocates nothing (pinned by TestScorerZeroAlloc). Every sum runs in a
// fixed order — a qubit's ZZ terms in Edges order, then its Stark shifts
// by ascending source — so the angles are bit-deterministic across runs
// and worker counts. An Integrator is not safe for concurrent use.
type Integrator struct {
	// Edges are the device's crosstalk edges with nonzero ZZ, in
	// AllCrosstalkEdges order. PhiZ holds the Rz error angle per qubit and
	// PhiZZ the Rzz error angle per entry of Edges that the last Integrate
	// left; angles below the noise floor read 0. Callers must not write
	// to them.
	Edges []device.Edge
	PhiZ  []float64
	PhiZZ []float64

	wZZ   []float64     // 2*pi*ZZ*1e-9 per edge
	inc   [][]int       // per qubit: indices of its edges
	stark [][]starkTerm // per source qubit, targets ascending

	// Per-layer scratch, reset between layers.
	sched    []qubitScratch
	touched  []int  // qubits with layer state to reset
	gateMask []bool // per edge: intra-gate this layer
	gateHit  []int  // edge indices to reset
	times    []float64
}

type starkTerm struct {
	dst int
	w   float64 // 2*pi*Stark*1e-9
}

// qubitScratch is one qubit's pulse activity within a layer.
type qubitScratch struct {
	pulses  []float64 // pulse times relative to layer start, sorted
	rotary  bool      // target of a two-qubit gate (rotary echo active)
	active  bool      // participates in a gate this layer
	driven  bool      // operand of a two-qubit gate: Stark-shifts neighbours
	touched bool
}

// pulseCap is each qubit's initial pulse capacity, carved from one backing
// array; a qubit with more pulses in a layer grows its own slice.
const pulseCap = 8

// NewIntegrator builds an integrator bound to one device.
func NewIntegrator(dev *device.Device) *Integrator {
	n := dev.NQubits
	s := &Integrator{sched: make([]qubitScratch, n), PhiZ: make([]float64, n)}
	const nsToS = 1e-9
	nx := len(dev.Edges) + len(dev.NNNEdges)
	s.Edges = make([]device.Edge, 0, nx)
	s.wZZ = make([]float64, 0, nx)
	for _, edges := range [][]device.Edge{dev.Edges, dev.NNNEdges} {
		for _, e := range edges {
			if w := 2 * math.Pi * dev.ZZ[e] * nsToS; w != 0 {
				s.Edges = append(s.Edges, e)
				s.wZZ = append(s.wZZ, w)
			}
		}
	}
	s.PhiZZ = make([]float64, len(s.Edges))
	s.gateMask = make([]bool, len(s.Edges))
	s.inc = byQubit(n, s.Edges, func(i, _ int) int { return i })

	// Stark terms in one pass over the couplings, then each source's
	// targets in ascending order, as Device.Neighbors lists them.
	s.stark = byQubit(n, dev.Edges, func(_, other int) starkTerm { return starkTerm{dst: other} })
	for src, ts := range s.stark {
		slices.SortFunc(ts, func(a, b starkTerm) int { return cmp.Compare(a.dst, b.dst) })
		keep := ts[:0]
		for _, t := range ts {
			if w := 2 * math.Pi * dev.Stark[device.Directed{Src: src, Dst: t.dst}] * nsToS; w != 0 {
				keep = append(keep, starkTerm{t.dst, w})
			}
		}
		s.stark[src] = keep
	}

	pulses := make([]float64, n*pulseCap)
	for q := range s.sched {
		s.sched[q].pulses = pulses[q*pulseCap : q*pulseCap : (q+1)*pulseCap]
	}
	return s
}

// byQubit lists, for each of n qubits, mk(i, other) for every edge i that
// touches it, in edge order; all lists share one backing array.
func byQubit[T any](n int, edges []device.Edge, mk func(i, other int) T) [][]T {
	off := make([]int, n+1)
	for _, e := range edges {
		off[e.A+1]++
		off[e.B+1]++
	}
	for q := 0; q < n; q++ {
		off[q+1] += off[q]
	}
	flat := make([]T, off[n])
	out := make([][]T, n)
	for q := range out {
		out[q] = flat[off[q]:off[q]:off[q+1]]
	}
	for i, e := range edges {
		out[e.A] = append(out[e.A], mk(i, e.B))
		out[e.B] = append(out[e.B], mk(i, e.A))
	}
	return out
}

// Integrate computes the surviving error angles of one scheduled layer
// into PhiZ and PhiZZ: the device's ZZ couplings and, when includeStark is
// set, the Stark shifts that driven qubits put on idle neighbours. Rates
// are read in Hz and durations in ns. An edge with an endpoint marked in
// collapsed, a per-qubit mask covering the device (nil marks none),
// contributes nothing, so CA-EC can leave edges of measured qubits to its
// measurement-conditioned corrections; Stark terms are not filtered.
//
// Two-qubit gates contribute an internal echo pulse on their first operand
// (the control) at mid-layer and a rotary flag on their second operand
// (the target); an RZZ's control also carries a frame-restoring echo at
// the layer's end. X, Y and DD pulses flip their qubit at their recorded
// offsets. Conditional gates are ignored (their execution is
// data-dependent; CA-EC handles measurement layers separately), and other
// one-qubit gates mark their qubit active.
func (s *Integrator) Integrate(l *circuit.Layer, includeStark bool, collapsed []bool) {
	s.reset()
	clear(s.PhiZ)
	if l.Duration <= 0 {
		clear(s.PhiZZ)
		return
	}
	T := l.Duration
	for ii := range l.Instrs {
		in := &l.Instrs[ii]
		if in.Cond != nil {
			continue
		}
		switch {
		case gates.NumQubits(in.Gate) == 2:
			c, t := in.Qubits[0], in.Qubits[1]
			if sc := s.touch(c); sc != nil {
				sc.active, sc.driven = true, true
				sc.pulses = append(sc.pulses, T/2) // internal echo
				if in.Gate == gates.RZZ {
					// Pulse-stretched RZZ uses a frame-restoring X2 echo.
					sc.pulses = append(sc.pulses, T)
				}
			}
			if st := s.touch(t); st != nil {
				st.active, st.rotary, st.driven = true, true, true
			}
			s.maskGate(c, t)
		case in.Gate == gates.XGate || in.Gate == gates.YGate || in.Gate == gates.XDD:
			if q := s.touch(in.Qubits[0]); q != nil {
				q.pulses = append(q.pulses, in.Time)
				if in.Tag != "dd" && in.Tag != "twirl" {
					q.active = true
				}
			}
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
			// no effect
		default:
			if len(in.Qubits) == 1 {
				if q := s.touch(in.Qubits[0]); q != nil {
					q.active = true
				}
			}
		}
	}
	for _, q := range s.touched {
		sortFloats(s.sched[q].pulses)
	}

	for i, e := range s.Edges {
		s.PhiZZ[i] = 0
		if s.gateMask[i] || collapsed != nil && (collapsed[e.A] || collapsed[e.B]) {
			continue
		}
		w := s.wZZ[i]
		a, b := &s.sched[e.A], &s.sched[e.B]
		if !a.rotary && !b.rotary {
			if zz := w * s.pairIntegral(a.pulses, b.pulses, T); math.Abs(zz) >= eps {
				s.PhiZZ[i] = zz
			}
		}
		if !a.rotary {
			s.PhiZ[e.A] -= w * signIntegral(a.pulses, T)
		}
		if !b.rotary {
			s.PhiZ[e.B] -= w * signIntegral(b.pulses, T)
		}
	}
	if includeStark {
		// Sources in ascending order, so an idle qubit shifted by two
		// driven neighbours sums them in a fixed order.
		for src := range s.sched {
			if !s.sched[src].driven {
				continue
			}
			for _, st := range s.stark[src] {
				nb := &s.sched[st.dst]
				if nb.active || nb.rotary {
					continue
				}
				s.PhiZ[st.dst] += st.w * signIntegral(nb.pulses, T)
			}
		}
	}
	for q, v := range s.PhiZ {
		if math.Abs(v) < eps {
			s.PhiZ[q] = 0
		}
	}
}

// ScoreCircuit returns the total predicted coherent error (radians) of a
// scheduled circuit on the integrator's device: per layer, the magnitudes
// of every surviving phiZZ and then phiZ angle, Stark included. The layout
// search exact-scores dozens of candidates per choice, and its argmin
// relies on this sum's fixed order.
func (s *Integrator) ScoreCircuit(c *circuit.Circuit) float64 {
	tot := 0.0
	for i := range c.Layers {
		s.Integrate(&c.Layers[i], true, nil)
		layer := 0.0
		for _, v := range s.PhiZZ {
			layer += math.Abs(v)
		}
		for _, v := range s.PhiZ {
			layer += math.Abs(v)
		}
		tot += layer
	}
	return tot
}

// touch returns the scratch of q, marking it for reset; nil when q is not
// a device qubit, which no crosstalk term reads.
func (s *Integrator) touch(q int) *qubitScratch {
	if uint(q) >= uint(len(s.sched)) {
		return nil
	}
	qs := &s.sched[q]
	if !qs.touched {
		qs.touched = true
		s.touched = append(s.touched, q)
	}
	return qs
}

// maskGate marks the crosstalk edge between a gate's operands, if there is
// one: the gate's calibration removes its own ZZ.
func (s *Integrator) maskGate(c, t int) {
	if uint(c) >= uint(len(s.inc)) {
		return
	}
	e := device.NewEdge(c, t)
	for _, i := range s.inc[c] {
		if s.Edges[i] == e && !s.gateMask[i] {
			s.gateMask[i] = true
			s.gateHit = append(s.gateHit, i)
		}
	}
}

// reset clears the previous layer's pulse scratch without releasing
// buffers.
func (s *Integrator) reset() {
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
}

// signIntegral returns Int_0^T s(t) dt for the suffix-convention sign
// function of the given pulse times.
func signIntegral(pulses []float64, T float64) float64 {
	// Prefix integral first, then convert: s_suffix = s_prefix * parity(all).
	integral := 0.0
	sign := 1.0
	prev := 0.0
	for _, p := range pulses {
		integral += sign * (p - prev)
		sign = -sign
		prev = p
	}
	integral += sign * (T - prev)
	parity := 1.0
	if len(pulses)%2 == 1 {
		parity = -1
	}
	return integral * parity
}

// pairIntegral returns Int_0^T s_a(t) s_b(t) dt over a reused merge
// buffer. The product of suffix signs equals the product of prefix signs
// times both parities.
func (s *Integrator) pairIntegral(pa, pb []float64, T float64) float64 {
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
		// Advance whichever schedule pulsed at t (both may).
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
