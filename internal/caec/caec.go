// Package caec implements Context-Aware Error Compensation (paper
// Algorithm 2). The pass walks a scheduled, twirled (and possibly
// DD-decorated) circuit layer by layer, computes the coherent Z/ZZ error
// that survives each layer from the device calibration and the layer's
// pulse context (via the toggling-frame integrals), and then:
//
//   - Z errors are compensated immediately with virtual Rz corrections —
//     free on hardware, inserted as zero-duration correction layers;
//   - ZZ errors accumulate in a compensation dictionary that is commuted
//     through twirl layers (sign flips when the twirl Paulis anticommute
//     with ZZ) and absorbed into downstream two-qubit gates at no cost when
//     they are RZZ or Ucan rotations (gamma -> gamma - theta/2) or CX
//     (which converts the ZZ into a free virtual Rz on the target);
//   - compensations that cannot be absorbed are materialized as
//     pulse-stretched native RZZ gates (short duration, proportionally
//     small error), or — next to a mid-circuit measurement — as
//     measurement-conditioned virtual Rz corrections appended to the
//     feed-forward operation (paper Fig. 9).
package caec

import (
	"cmp"
	"math"
	"slices"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/sched"
	"casq/internal/toggling"
)

// Options configure the pass.
type Options struct {
	// MinAngle ignores compensation angles below this threshold (radians).
	MinAngle float64
	// MaterializeMin is the smallest pending ZZ angle (radians) worth an
	// explicit pulse-stretched RZZ correction gate. Compensations below it
	// that cannot be absorbed for free are dropped: the correction gate's
	// own error and the idle window it opens on the rest of the device
	// would cost more than the residual coherent error it removes. Zero
	// materializes everything (exact coherent cancellation).
	MaterializeMin float64
	// FFTime is the feed-forward duration (ns) the compiler assumes when
	// computing measurement-conditioned corrections; < 0 means use the
	// device calibration (DurFF). The Fig. 9 experiment scans this value.
	FFTime float64
}

// DefaultOptions materializes native-RZZ corrections for pending angles
// above ~0.1 rad.
func DefaultOptions() Options {
	return Options{MinAngle: 1e-9, MaterializeMin: 0.1, FFTime: -1}
}

// Stats reports what the pass did.
type Stats struct {
	VirtualRZ     int // free virtual Rz corrections inserted
	AbsorbedUcan  int // ZZ compensations absorbed into Ucan/RZZ angles
	AbsorbedCX    int // ZZ compensations converted to virtual Rz through CX
	InsertedRZZ   int // pulse-stretched native RZZ corrections materialized
	Conditional   int // measurement-conditioned corrections appended
	SignFlips     int // compensation sign flips through twirl Paulis
	Dropped       int
	DroppedAngles float64
}

// Apply runs CA-EC over the circuit, returning a new compiled circuit
// (rescheduled) and statistics. The input must be scheduled.
func Apply(c *circuit.Circuit, dev *device.Device, opts Options) (*circuit.Circuit, Stats, error) {
	if opts.MinAngle <= 0 {
		opts.MinAngle = 1e-9
	}
	n := max(c.NQubits, dev.NQubits)
	p := &pass{
		dev:       dev,
		opts:      opts,
		out:       circuit.New(c.NQubits, c.NCBits),
		integ:     toggling.NewIntegrator(dev),
		comp2q:    map[device.Edge]float64{},
		collapsed: make([]bool, n),
		mark:      make([]bool, n),
		gateAt:    make([]int, n),
		cbit:      make([]int, n),
		zSum:      make([]float64, n),
	}
	for q := range n {
		p.gateAt[q], p.cbit[q] = -1, -1
	}
	for li := range c.Layers {
		p.processLayer(&c.Layers[li])
	}
	// Materialize anything still pending at the end of the circuit. Each
	// correction layer idles the rest of the device briefly and can leave
	// new (much smaller) pending terms; a few rounds converge.
	for iter := 0; iter < 3 && len(p.comp2q) > 0; iter++ {
		p.materializeAll()
	}
	sched.Schedule(p.out, dev)
	return p.out, p.stats, nil
}

// pass is one Apply's state. Its per-qubit slices cover the wider of the
// circuit and the device; every scratch slice is reset after use.
type pass struct {
	dev       *device.Device
	opts      Options
	out       *circuit.Circuit
	integ     *toggling.Integrator
	comp2q    map[device.Edge]float64 // pending ZZ *error* angle per edge
	collapsed []bool                  // qubits already measured mid-circuit
	stats     Stats

	// mark is one step's per-qubit flag (a twirl Pauli, a packed RZZ
	// correction or an addZ entry on the qubit); it is all false between
	// steps.
	mark    []bool
	gateAt  []int         // index of the two-qubit gate on the qubit, -1 if none
	cbit    []int         // classical bit a measure layer writes from the qubit, -1 if none
	zSum    []float64     // Z error angle per qubit, summed by addZ
	zQubits []int         // qubits with an addZ entry
	keys    []device.Edge // pending edges before a layer's correction layers
	must    []device.Edge // pending edges to materialize before a layer
	late    []device.Edge // pending edges a layer's correction layers left
	afterZ  []zCorr       // Z corrections converted through CX gates
}

func (p *pass) processLayer(l *circuit.Layer) {
	switch l.Kind {
	case circuit.TwirlLayer:
		p.commuteThroughTwirl(l)
		p.out.Layers = append(p.out.Layers, l.Clone())
	case circuit.OneQubitLayer:
		p.out.Layers = append(p.out.Layers, l.Clone())
		p.emitLayerErrors(l)
	case circuit.TwoQubitLayer:
		p.processTwoQubitLayer(l)
	case circuit.MeasureLayer:
		p.processMeasureLayer(l)
	default:
		p.out.Layers = append(p.out.Layers, l.Clone())
	}
}

// commuteThroughTwirl moves the pending ZZ compensations past a twirl
// layer: the sign flips iff exactly one endpoint's Pauli anticommutes with
// Z (paper Fig. 1d).
func (p *pass) commuteThroughTwirl(l *circuit.Layer) {
	p.markPaulis(l, true)
	for e, v := range p.comp2q {
		if v == 0 {
			continue
		}
		if p.mark[e.A] != p.mark[e.B] {
			p.comp2q[e] = -v
			p.stats.SignFlips++
		}
	}
	p.markPaulis(l, false)
}

// markPaulis sets mark to on for every qubit carrying an X or Y of l.
func (p *pass) markPaulis(l *circuit.Layer, on bool) {
	for i := range l.Instrs {
		if in := &l.Instrs[i]; in.Gate == gates.XGate || in.Gate == gates.YGate {
			p.mark[in.Qubits[0]] = on
		}
	}
}

// processTwoQubitLayer first resolves pending ZZ compensations against the
// layer's gates (absorb, convert, or materialize), then appends the layer
// and accounts for the new errors it generates.
func (p *pass) processTwoQubitLayer(l *circuit.Layer) {
	nl := l.Clone()
	p.setGates(&nl, true)
	defer p.setGates(&nl, false)
	p.afterZ = p.afterZ[:0]

	// classify decides what happens to a pending Rzz on edge e as it meets
	// this layer: absorbed into a gate on the same edge; carried through
	// (sign-conjugated by the ideal gates: ECR flips Z on its control,
	// CX/RZZ preserve it); or blocked (gate targets and Ucan operands turn
	// ZZ into non-diagonal operators) and hence materialized before the
	// layer.
	classify := func(e device.Edge) (carrySign float64, blocked bool) {
		carrySign = 1
		for _, q := range [2]int{e.A, e.B} {
			i := p.gateAt[q]
			if i < 0 {
				continue
			}
			in := &nl.Instrs[i]
			switch {
			case in.Gate == gates.RZZ:
				// diagonal: commutes on either operand
			case in.Gate == gates.Ucan:
				blocked = true
			case in.Qubits[0] == q: // control of ECR/CX/ZX/SWAP
				switch in.Gate {
				case gates.ECR:
					carrySign = -carrySign // ECR Z_c ECR^dag = -Z_c
				case gates.CX:
					// CX preserves Z on its control
				default:
					blocked = true
				}
			default: // target of ECR/CX/...: Z_t maps to a non-local Pauli
				blocked = true
			}
		}
		return carrySign, blocked
	}

	resolve := func(e device.Edge, theta float64) (done bool) {
		i := p.gateAt[e.A]
		if i < 0 {
			return false
		}
		in := &nl.Instrs[i]
		if device.NewEdge(in.Qubits[0], in.Qubits[1]) != e {
			return false
		}
		switch in.Gate {
		case gates.Ucan:
			_, _, g := gates.AbsorbRzzIntoUcan(in.Params[0], in.Params[1], in.Params[2], theta)
			in.Params[2] = g
			p.stats.AbsorbedUcan++
			delete(p.comp2q, e)
			return true
		case gates.RZZ:
			in.Params[0] = gates.AbsorbRzzIntoRzz(in.Params[0], theta)
			p.stats.AbsorbedUcan++
			delete(p.comp2q, e)
			return true
		case gates.CX:
			// CX . Rzz(theta) = (I x Rz(theta)) . CX: the pending ZZ
			// becomes a free virtual Rz on the target after the gate.
			p.afterZ = append(p.afterZ, zCorr{q: in.Qubits[1], errAngle: theta})
			p.stats.AbsorbedCX++
			delete(p.comp2q, e)
			return true
		}
		return false
	}

	// Each edge's decision is independent of the others', so the map's
	// order reaches only the order of must, which materializePending sorts.
	p.keys, p.must = p.keys[:0], p.must[:0]
	for e, theta := range p.comp2q {
		p.keys = append(p.keys, e)
		if math.Abs(theta) < p.opts.MinAngle {
			delete(p.comp2q, e)
			continue
		}
		if resolve(e, theta) {
			continue
		}
		sign, blocked := classify(e)
		if blocked {
			p.must = append(p.must, e)
			continue
		}
		if sign < 0 {
			p.comp2q[e] = -theta
			p.stats.SignFlips++
		}
	}
	depth := len(p.out.Layers)
	p.materializePending(p.must)
	// The correction layers just inserted idle the rest of the device for a
	// short window and may have produced new (small) pending terms that also
	// sit before this gate layer. Give them the same treatment, but drop
	// blocked ones instead of recursing into further correction layers.
	// Edges go in ascending order, so DroppedAngles sums in a fixed order.
	// Without a correction layer no edge became pending.
	if len(p.out.Layers) > depth {
		sortEdges(p.keys)
		p.late = p.late[:0]
		for e := range p.comp2q {
			if _, seen := slices.BinarySearchFunc(p.keys, e, compareEdges); !seen {
				p.late = append(p.late, e)
			}
		}
		sortEdges(p.late)
		for _, e := range p.late {
			theta := p.comp2q[e]
			if math.Abs(theta) < p.opts.MinAngle {
				delete(p.comp2q, e)
				continue
			}
			if resolve(e, theta) {
				continue
			}
			sign, blocked := classify(e)
			if blocked {
				p.stats.Dropped++
				p.stats.DroppedAngles += math.Abs(theta)
				delete(p.comp2q, e)
				continue
			}
			if sign < 0 {
				p.comp2q[e] = -theta
				p.stats.SignFlips++
			}
		}
	}

	p.out.Layers = append(p.out.Layers, nl)
	p.emitLayerErrors(l)
	for _, z := range p.afterZ {
		p.addZ(z.q, z.errAngle)
	}
	p.emitZCorrections()
}

// setGates records (on) or clears each two-qubit gate of l in gateAt.
func (p *pass) setGates(l *circuit.Layer, on bool) {
	for i := range l.Instrs {
		in := &l.Instrs[i]
		if gates.NumQubits(in.Gate) != 2 {
			continue
		}
		at := -1
		if on {
			at = i
		}
		p.gateAt[in.Qubits[0]], p.gateAt[in.Qubits[1]] = at, at
	}
}

type zCorr struct {
	q        int
	errAngle float64 // accumulated *error* angle; correction is its negative
}

// emitLayerErrors computes the surviving coherent error of the layer, the
// always-on ZZ and the Stark shifts of driven neighbours, via the toggling
// integrals. It compensates the Z part at once with a virtual Rz layer and
// adds the ZZ part to the pending dictionary. Edges touching a collapsed
// (measured) qubit are handled once, by the measurement-conditioned
// corrections, so the integrator leaves them out.
func (p *pass) emitLayerErrors(l *circuit.Layer) {
	if l.Duration <= 0 {
		return
	}
	in := p.integ
	in.Integrate(l, true, p.collapsed)
	for q, phi := range in.PhiZ {
		if phi != 0 && !p.collapsed[q] {
			p.addZ(q, phi)
		}
	}
	p.emitZCorrections()
	for i, phi := range in.PhiZZ {
		if phi != 0 {
			p.comp2q[in.Edges[i]] += phi
		}
	}
}

// addZ adds an error angle on qubit q for the next emitZCorrections.
func (p *pass) addZ(q int, errAngle float64) {
	if !p.mark[q] {
		p.mark[q] = true
		p.zQubits = append(p.zQubits, q)
	}
	p.zSum[q] += errAngle
}

// emitZCorrections appends a zero-duration virtual-Rz layer undoing the
// error angles addZ summed per qubit, in ascending qubit order, and clears
// them. The layer is allocated at its final size, its operands and angles
// in one backing array each.
func (p *pass) emitZCorrections() {
	slices.Sort(p.zQubits)
	keep := func(angle float64) bool { return !(math.Abs(angle) < p.opts.MinAngle) }
	n := 0
	for _, q := range p.zQubits {
		if keep(p.zSum[q]) {
			n++
		}
	}
	if n > 0 {
		instrs := make([]circuit.Instruction, 0, n)
		operands := make([]int, n)
		angles := make([]float64, n)
		for _, q := range p.zQubits {
			angle := p.zSum[q]
			if !keep(angle) {
				continue
			}
			k := len(instrs)
			operands[k], angles[k] = q, -angle
			instrs = append(instrs, circuit.Instruction{
				Gate:   gates.RZ,
				Qubits: operands[k : k+1 : k+1],
				Params: angles[k : k+1 : k+1],
				Tag:    "ec",
			})
		}
		p.out.Layers = append(p.out.Layers, circuit.Layer{Kind: circuit.OneQubitLayer, Instrs: instrs})
		p.stats.VirtualRZ += n
	}
	for _, q := range p.zQubits {
		p.zSum[q], p.mark[q] = 0, false
	}
	p.zQubits = p.zQubits[:0]
}

// materializeAll flushes every pending ZZ compensation as explicit gates.
func (p *pass) materializeAll() {
	edges := make([]device.Edge, 0, len(p.comp2q))
	for e := range p.comp2q {
		edges = append(edges, e)
	}
	p.materializePending(edges)
}

// materializePending inserts pulse-stretched native RZZ corrections for the
// listed edges, packing disjoint edges into shared layers. It sorts edges
// in place first, so DroppedAngles sums in ascending edge order.
func (p *pass) materializePending(edges []device.Edge) {
	sortEdges(edges)
	var work []device.Edge
	for _, e := range edges {
		theta := p.comp2q[e]
		if math.Abs(theta) < p.opts.MinAngle {
			delete(p.comp2q, e)
			continue
		}
		if math.Abs(theta) < p.opts.MaterializeMin {
			p.stats.Dropped++
			p.stats.DroppedAngles += math.Abs(theta)
			delete(p.comp2q, e)
			continue
		}
		work = append(work, e)
	}
	// Greedy pack into layers of disjoint edges in ascending edge order;
	// work is sorted and rest keeps its order.
	for len(work) > 0 {
		layer := circuit.Layer{Kind: circuit.TwoQubitLayer}
		var rest []device.Edge
		for _, e := range work {
			if p.mark[e.A] || p.mark[e.B] {
				rest = append(rest, e)
				continue
			}
			p.mark[e.A], p.mark[e.B] = true, true
			layer.Instrs = append(layer.Instrs, circuit.Instruction{
				Gate:   gates.RZZ,
				Qubits: []int{e.A, e.B},
				Params: []float64{-p.comp2q[e]},
				Tag:    "ec",
			})
			p.stats.InsertedRZZ++
			delete(p.comp2q, e)
		}
		for i := range layer.Instrs {
			q := layer.Instrs[i].Qubits
			p.mark[q[0]], p.mark[q[1]] = false, false
		}
		// The correction layer has nonzero duration itself, so the rest of
		// the device idles (and accumulates error) while it runs; account
		// for that too.
		layer.Duration = sched.LayerDuration(&layer, p.dev)
		p.out.Layers = append(p.out.Layers, layer)
		p.emitLayerErrors(&p.out.Layers[len(p.out.Layers)-1])
		work = rest
	}
}

// compareEdges orders edges by (A, B).
func compareEdges(a, b device.Edge) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// sortEdges sorts edges by (A, B).
func sortEdges(es []device.Edge) { slices.SortFunc(es, compareEdges) }

// processMeasureLayer handles mid-circuit measurement: pending ZZ touching
// measured qubits is materialized first; errors accumulated during the
// measurement + feed-forward window on edges adjacent to a measured qubit
// become measurement-conditioned virtual Rz corrections (paper Fig. 9);
// edges between unmeasured qubits accumulate normally.
func (p *pass) processMeasureLayer(l *circuit.Layer) {
	for i := range l.Instrs {
		if in := &l.Instrs[i]; in.Gate == gates.Measure {
			p.cbit[in.Qubits[0]] = in.CBit
		}
	}
	measured := func(q int) bool { return p.cbit[q] >= 0 }
	var toMat []device.Edge
	for e, v := range p.comp2q {
		if v != 0 && (measured(e.A) || measured(e.B)) {
			toMat = append(toMat, e)
		}
	}
	p.materializePending(toMat)
	p.out.Layers = append(p.out.Layers, l.Clone())

	ff := p.opts.FFTime
	if ff < 0 {
		ff = p.dev.DurFF
	}
	tau := l.Duration + ff // measurement + feed-forward idle window
	const nsToS = 1e-9
	var condLayer *circuit.Layer
	for _, e := range p.integ.Edges {
		w := 2 * math.Pi * p.dev.ZZ[e] * nsToS
		switch {
		case measured(e.A) && measured(e.B):
			// Both collapsed: pure phase, nothing to correct.
		case measured(e.A) || measured(e.B):
			// One endpoint measured: the surviving error on the spectator is
			// Rz(w*tau*(z_m - 1)): zero for outcome 0, -2*w*tau for outcome
			// 1. Compensate with a conditional virtual Rz on the spectator.
			spec, cbit := e.B, p.cbit[e.A]
			if measured(e.B) {
				spec, cbit = e.A, p.cbit[e.B]
			}
			if p.collapsed[spec] {
				continue
			}
			if condLayer == nil {
				p.out.Layers = append(p.out.Layers, circuit.Layer{Kind: circuit.OneQubitLayer})
				condLayer = &p.out.Layers[len(p.out.Layers)-1]
			}
			// The correction is a conditional *virtual* Rz: diagonal, so it
			// commutes with the remaining idle evolution and can execute as
			// soon as the measurement result is available (Time 0, zero
			// duration).
			condLayer.Add(circuit.Instruction{
				Gate:   gates.RZ,
				Qubits: []int{spec},
				Params: []float64{2 * w * tau},
				Cond:   &circuit.Condition{Bit: cbit, Value: 1},
				Tag:    "ec",
			})
			p.stats.Conditional++
		default:
			if p.collapsed[e.A] || p.collapsed[e.B] {
				continue
			}
			// Both idle and unmeasured: the usual U11 accumulation over the
			// measurement window (the feed-forward window is accounted by
			// the following conditional layer's own toggling pass).
			p.comp2q[e] += w * l.Duration
			p.addZ(e.A, -w*l.Duration)
			p.addZ(e.B, -w*l.Duration)
		}
	}
	p.emitZCorrections()
	for i := range l.Instrs {
		if in := &l.Instrs[i]; in.Gate == gates.Measure {
			q := in.Qubits[0]
			p.collapsed[q], p.cbit[q] = true, -1
		}
	}
}
