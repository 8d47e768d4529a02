package sim

import (
	"cmp"
	"math"
	"slices"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
)

// Layer lowering, shared by the statevector kernel and the stabilizer
// engine's compiler (internal/stab): both walk the same timed events in
// the same layer context and integrate the same crosstalk between them.
// Only what an event does differs per engine.

// Crosstalk is the coherent-crosstalk table of one circuit on one device:
// every crosstalk edge with its ZZ rate (plus zero-rate edges for RZZ
// corrections on uncoupled pairs, so their angle has a slot) and the
// nonzero Stark terms sorted by source, then target.
type Crosstalk struct {
	Edges  []device.Edge
	QEdges [][]int // per qubit: indices of the edges that touch it, in edge order

	dev    *device.Device
	omega  []float64 // ZZ rate per edge, rad/ns
	starks []starkTerm

	// Rebuild scratch: the backing array of QEdges, per-qubit counts and
	// the circuit's RZZ pairs.
	inc   []int
	count []int
	rzz   []device.Edge
}

type starkTerm struct {
	src, dst int
	w        float64 // rad/ns
}

const hzToRadPerNs = 2 * math.Pi * 1e-9

// NewCrosstalk builds the crosstalk table of circuit c on dev.
func NewCrosstalk(dev *device.Device, c *circuit.Circuit) *Crosstalk {
	x := new(Crosstalk)
	x.Rebuild(dev, c)
	return x
}

// Rebuild makes x the crosstalk table of circuit c on dev, in x's own
// storage. Edge ids follow NN edges, then NNN edges, then the circuit's
// RZZ pairs in circuit order, the first occurrence of an edge taking its
// id. Every per-qubit incident list sits in one backing array, and an
// edge's id is found through its first endpoint's list.
func (x *Crosstalk) Rebuild(dev *device.Device, c *circuit.Circuit) {
	n := c.NQubits
	x.dev = dev
	// Each candidate edge counts toward both endpoints, duplicates
	// included, so every list's share of the backing array holds the
	// edges that survive.
	count := zeroed(x.count, n+1)
	x.rzz = x.rzz[:0]
	for _, edges := range [2][]device.Edge{dev.Edges, dev.NNNEdges} {
		for _, e := range edges {
			count[e.A+1]++
			count[e.B+1]++
		}
	}
	for li := range c.Layers {
		for ii := range c.Layers[li].Instrs {
			if in := &c.Layers[li].Instrs[ii]; in.Gate == gates.RZZ {
				e := device.NewEdge(in.Qubits[0], in.Qubits[1])
				x.rzz = append(x.rzz, e)
				count[e.A+1]++
				count[e.B+1]++
			}
		}
	}
	for q := 0; q < n; q++ {
		count[q+1] += count[q]
	}
	x.inc = slices.Grow(x.inc[:0], count[n])[:count[n]]
	x.QEdges = slices.Grow(x.QEdges[:0], n)[:n]
	for q := range x.QEdges {
		x.QEdges[q] = x.inc[count[q]:count[q]:count[q+1]]
	}
	x.Edges, x.omega = x.Edges[:0], x.omega[:0]
	for _, edges := range [2][]device.Edge{dev.Edges, dev.NNNEdges} {
		for _, e := range edges {
			x.add(e, dev.ZZ[e])
		}
	}
	for _, e := range x.rzz {
		x.add(e, 0)
	}

	// Stark terms by a counting pass over sources, then each source's
	// targets in ascending order: keys are unique, so this is the order of
	// a sort by (source, target).
	count = zeroed(count, dev.NQubits+1)
	for d, hz := range dev.Stark {
		if hz != 0 {
			count[d.Src+1]++
		}
	}
	for q := 0; q < dev.NQubits; q++ {
		count[q+1] += count[q]
	}
	x.starks = slices.Grow(x.starks[:0], count[dev.NQubits])[:count[dev.NQubits]]
	for d, hz := range dev.Stark {
		if hz != 0 {
			x.starks[count[d.Src]] = starkTerm{d.Src, d.Dst, hz * hzToRadPerNs}
			count[d.Src]++
		}
	}
	// count[q] now ends source q's terms.
	lo := 0
	for q := 0; q < dev.NQubits; q++ {
		slices.SortFunc(x.starks[lo:count[q]], func(a, b starkTerm) int { return cmp.Compare(a.dst, b.dst) })
		lo = count[q]
	}
	x.count = count
}

// add appends edge e with ZZ rate hz unless x already has it.
func (x *Crosstalk) add(e device.Edge, hz float64) {
	if _, ok := x.edgeID(e); ok {
		return
	}
	i := len(x.Edges)
	x.Edges = append(x.Edges, e)
	x.omega = append(x.omega, hz*hzToRadPerNs)
	x.QEdges[e.A] = append(x.QEdges[e.A], i)
	x.QEdges[e.B] = append(x.QEdges[e.B], i)
}

// edgeID returns the id of edge e, if x has it.
func (x *Crosstalk) edgeID(e device.Edge) (int, bool) {
	for _, i := range x.QEdges[e.A] {
		if x.Edges[i] == e {
			return i, true
		}
	}
	return 0, false
}

// Release drops x's device, so that storage kept for a later Rebuild does
// not keep the device alive. x must be rebuilt before its next use.
func (x *Crosstalk) Release() { x.dev = nil }

// EventKind is what a lowered event does.
type EventKind uint8

const (
	EvGate1Q    EventKind = iota // non-diagonal one-qubit gate on Q0
	EvPulse                      // X or Y pulse on Q0: flips Q0's pending phases
	EvVirtualZ                   // RZ/Z/S/Sdg: Angle joins Q0's pending Z phase
	EvGate2Q                     // two-qubit gate on (Q0, Q1) starts
	EvEcho                       // control echo on Q0: mid-gate, and at the end for RZZ
	EvRZZ                        // RZZ: Angle joins edge Edge's pending ZZ phase
	EvGateErr2Q                  // two-qubit gate error on (Q0, Q1), probability ErrP
	EvMeasure                    // Z measurement of Q0 into In.CBit
)

// Event is one timed action of a lowered layer. The ECR is the one event
// the engines read differently: at its EvEcho the statevector kernel
// applies the physical X and the second ZX(-pi/4) half, while the
// stabilizer compiler, which applied the whole Clifford at EvGate2Q, only
// flips the control's pending phases.
type Event struct {
	T      float64 // absolute time, ns
	Kind   EventKind
	Q0, Q1 int
	Angle  float64 // EvVirtualZ, EvRZZ
	ErrP   float64 // gate-error probability of EvGate1Q, EvPulse, EvGateErr2Q
	Edge   int     // crosstalk edge index of EvRZZ
	In     *circuit.Instruction
}

// at returns a copy of ev at time t with kind k.
func (ev Event) at(t float64, k EventKind) Event {
	ev.T, ev.Kind = t, k
	return ev
}

// Lowered is one scheduled layer as both engines walk it: its events in
// time order and the context masks the crosstalk integral reads.
type Lowered struct {
	Start, Dur float64
	Events     []Event
	Active     []bool // per qubit: a gate or measurement (not DD) acts on it
	Driven     []bool // per qubit: a two-qubit gate drives it, Stark-shifting its neighbours
	Rotary     []bool // per qubit: a two-qubit gate's target, its crosstalk echoed to the rotary residual
	GatePair   []bool // per edge: a two-qubit gate's own pair, whose ZZ is calibrated away

	// Sort scratch, reused across layers.
	keys  []eventKey
	spare []Event
}

// eventKey is a pointer-free sort key: an event's time and its index in
// emission order.
type eventKey struct {
	t float64
	i int32
}

// zeroed returns s resized to n zero entries, reusing its storage when it
// is large enough.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Lower fills dst with layer l's context masks and its events sorted by
// time, ties in instruction order. dst's storage is reused, so one
// Lowered can walk a whole circuit layer by layer.
func (x *Crosstalk) Lower(dst *Lowered, l *circuit.Layer) {
	x.emit(dst, l)
	dst.sortEvents()
}

// emit fills dst with layer l's context masks and its events in emission
// order, instruction by instruction.
func (x *Crosstalk) emit(dst *Lowered, l *circuit.Layer) {
	nq := len(x.QEdges)
	dst.Start, dst.Dur = l.Start, l.Duration
	dst.Active = zeroed(dst.Active, nq)
	dst.Driven = zeroed(dst.Driven, nq)
	dst.Rotary = zeroed(dst.Rotary, nq)
	dst.GatePair = zeroed(dst.GatePair, len(x.Edges))
	// Worst case is four events per instruction (RZZ).
	if n := 4 * len(l.Instrs); cap(dst.Events) < n {
		dst.Events = make([]Event, 0, n)
	}
	evs := dst.Events[:0]
	for ii := range l.Instrs {
		in := &l.Instrs[ii]
		switch {
		case in.Gate == gates.Delay || in.Gate == gates.Barrier:
		case in.Gate == gates.Measure:
			dst.Active[in.Qubits[0]] = true
			evs = append(evs, Event{T: l.Start, Kind: EvMeasure, Q0: in.Qubits[0], In: in})
		case gates.NumQubits(in.Gate) == 2:
			q0, q1 := in.Qubits[0], in.Qubits[1]
			dst.Active[q0], dst.Active[q1] = true, true
			dst.Driven[q0], dst.Driven[q1] = true, true
			dst.Rotary[q1] = true
			pair := device.NewEdge(q0, q1)
			id, ok := x.edgeID(pair)
			if ok {
				dst.GatePair[id] = true
			}
			errP, ok := x.dev.Err2Q[pair]
			if !ok {
				errP = 5e-3
			}
			mid, end := l.Start+l.Duration/2, l.Start+l.Duration
			ev := Event{Q0: q0, Q1: q1, In: in}
			if in.Gate == gates.RZZ {
				// A pulse-stretched RZZ carries an X2 echo on the control
				// (pulses at T/2 and T): spectator couplings average out
				// while the frame returns to identity, so phases pending
				// from earlier layers are not conjugated. The gate's own
				// calibrated ZZ angle takes effect at completion, and its
				// error scales with the stretch fraction of a full ECR.
				rzz := ev.at(end, EvRZZ)
				rzz.Angle, rzz.Edge = in.Params[0], id
				evs = append(evs, ev.at(mid, EvEcho), ev.at(end, EvEcho), rzz)
				frac := math.Abs(in.Params[0]) / (math.Pi / 2)
				if frac > 1 {
					frac = 1
				}
				errP *= frac
			} else {
				// ECR, CX, Ucan, ZX, SWAP: the ECR's physical echo, or the
				// ghost echo of a logical unit, at mid-gate.
				evs = append(evs, ev.at(l.Start, EvGate2Q), ev.at(mid, EvEcho))
			}
			ev.ErrP = errP
			evs = append(evs, ev.at(end, EvGateErr2Q))
		default: // one-qubit
			q := in.Qubits[0]
			if in.Tag != "dd" {
				dst.Active[q] = true
			}
			errP := x.dev.Err1Q[q]
			if in.Tag == "twirl" {
				errP = 0 // merged into neighboring 1q gates at no cost
			}
			ev := Event{T: l.Start + in.Time, Kind: EvVirtualZ, Q0: q, In: in}
			switch in.Gate {
			case gates.ID:
				continue
			case gates.RZ:
				ev.Angle = in.Params[0]
			case gates.ZGate:
				ev.Angle = math.Pi
			case gates.S:
				ev.Angle = math.Pi / 2
			case gates.Sdg:
				ev.Angle = -math.Pi / 2
			case gates.XGate, gates.XDD, gates.YGate:
				ev.Kind, ev.ErrP = EvPulse, errP
			default:
				ev.Kind, ev.ErrP = EvGate1Q, errP
			}
			evs = append(evs, ev)
		}
	}
	dst.Events = evs
}

// sortEvents orders dst.Events by time, ties in emission order: the order
// a stable sort by time gives. Events are 64 bytes and hold a pointer, so
// instead of moving them through the sort it sorts (time, index) keys and
// then moves each event once. Layers already in time order (one-qubit,
// twirl and measure layers) skip the sort.
func (dst *Lowered) sortEvents() {
	evs := dst.Events
	sorted := true
	for i := 1; i < len(evs) && sorted; i++ {
		sorted = cmp.Compare(evs[i-1].T, evs[i].T) <= 0
	}
	if sorted {
		return
	}
	keys := dst.keys[:0]
	for i := range evs {
		keys = append(keys, eventKey{evs[i].T, int32(i)})
	}
	slices.SortFunc(keys, func(a, b eventKey) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.i, b.i))
	})
	spare := append(dst.spare[:0], evs...)
	for j, k := range keys {
		evs[j] = spare[k.i]
	}
	dst.keys, dst.spare = keys, spare
}

// Integrate adds the always-on ZZ (with its spectator Z) and the Stark
// shifts that accrue over dt ns in layer l's context to the pending
// angles phiZ (per qubit) and phiZZ (per edge), for the channels cfg
// enables. Both engines call it between consecutive events.
func (x *Crosstalk) Integrate(cfg *Config, l *Lowered, dt float64, phiZ, phiZZ []float64) {
	res := x.dev.RotaryResidual
	if cfg.EnableZZ {
		for i, e := range x.Edges {
			w := x.omega[i]
			if w == 0 || l.GatePair[i] {
				continue
			}
			fa, fb := 1.0, 1.0
			if l.Rotary[e.A] {
				fa = res
			}
			if l.Rotary[e.B] {
				fb = res
			}
			phiZZ[i] += w * dt * fa * fb
			phiZ[e.A] -= w * dt * fa
			phiZ[e.B] -= w * dt * fb
		}
	}
	if cfg.EnableStark {
		for _, st := range x.starks {
			if !l.Driven[st.src] || l.Active[st.dst] {
				continue
			}
			f := 1.0
			if l.Rotary[st.dst] {
				f = res
			}
			phiZ[st.dst] += st.w * dt * f
		}
	}
}
