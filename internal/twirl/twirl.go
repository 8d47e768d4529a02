// Package twirl implements Pauli twirling of two-qubit gate layers (paper
// Sec. III A, Fig. 2). For Clifford gates (ECR, CX) the post-gate Paulis are
// derived from a conjugation table so that the layer's logical action is
// unchanged; for the commuting-family gates (RZZ, Ucan) the twirl group is
// {II, XX, YY, ZZ}. Twirl gates live in dedicated zero-duration TwirlLayers
// and are merged into neighboring single-qubit gates at execution time, so
// they add no runtime and no extra gate error — matching the paper's model.
package twirl

import (
	"fmt"
	"math/rand"
	"sync"

	"casq/internal/circuit"
	"casq/internal/gates"
	"casq/internal/pauli"
)

// Scope selects which qubits receive twirl Paulis.
type Scope int

const (
	// GatesOnly twirls only the qubits participating in two-qubit gates
	// (the PEC/PEA workflow of Sec. III A).
	GatesOnly Scope = iota
	// AllQubits additionally twirls idle qubits in two-qubit layers with
	// self-inverting random Paulis, as the layer-fidelity protocol does.
	AllQubits
)

var twoPauli = []pauli.Pauli{pauli.I, pauli.X, pauli.Y, pauli.Z}

// The conjugation table of each supported Clifford kind, built on first
// use and then shared.
var (
	ecrTable  = sync.OnceValues(func() (*pauli.CliffordTable, error) { return newTable(gates.ECR) })
	cxTable   = sync.OnceValues(func() (*pauli.CliffordTable, error) { return newTable(gates.CX) })
	swapTable = sync.OnceValues(func() (*pauli.CliffordTable, error) { return newTable(gates.SWAP) })
)

func newTable(k gates.Kind) (*pauli.CliffordTable, error) {
	t, err := pauli.NewCliffordTable(gates.Matrix2Q(k))
	if err != nil {
		return nil, fmt.Errorf("twirl: %s: %w", k, err)
	}
	return t, nil
}

// TableFor returns (building on first use) the Pauli conjugation table of a
// Clifford two-qubit gate kind. Every call for one kind returns the same
// table, so callers may memoize on the pointer.
func TableFor(k gates.Kind) (*pauli.CliffordTable, error) {
	switch k {
	case gates.ECR:
		return ecrTable()
	case gates.CX:
		return cxTable()
	case gates.SWAP:
		return swapTable()
	}
	return nil, fmt.Errorf("twirl: %s is not a supported Clifford gate", k)
}

func pauliGate(p pauli.Pauli) gates.Kind {
	switch p {
	case pauli.X:
		return gates.XGate
	case pauli.Y:
		return gates.YGate
	case pauli.Z:
		return gates.ZGate
	}
	return gates.ID
}

// twirlLayer is a pre or post TwirlLayer under construction, allocated at
// its largest possible size: one Pauli per qubit of the gates and, under
// AllQubits, per idle qubit. Every Pauli's operand lives in one backing
// array.
type twirlLayer struct {
	l     circuit.Layer
	qs    []int
	busy  []int // per qubit: the stamp of the last layer holding a Pauli on it
	stamp int
}

func newTwirlLayer(size int, busy []int, stamp int) *twirlLayer {
	return &twirlLayer{
		l:     circuit.Layer{Kind: circuit.TwirlLayer, Instrs: make([]circuit.Instruction, 0, size)},
		qs:    make([]int, 0, size),
		busy:  busy,
		stamp: stamp,
	}
}

// add appends Pauli p on qubit q, unless p is the identity. A second
// Pauli on one qubit panics with Layer.Add's message: it means two of the
// gates share an operand.
func (t *twirlLayer) add(p pauli.Pauli, q int) {
	if p == pauli.I {
		return
	}
	if mark(t.busy, q, t.stamp) {
		panic(fmt.Sprintf("circuit: qubit %d used twice in one layer", q))
	}
	t.qs = append(t.qs, q)
	n := len(t.qs)
	t.l.Instrs = append(t.l.Instrs, circuit.Instruction{Gate: pauliGate(p), Qubits: t.qs[n-1 : n : n], Tag: "twirl"})
}

// mark stamps qubit q in m and reports whether it already carried the
// stamp. A qubit outside the circuit is not marked; Validate reports it.
func mark(m []int, q, stamp int) bool {
	if q < 0 || q >= len(m) {
		return false
	}
	was := m[q] == stamp
	m[q] = stamp
	return was
}

// Instance returns a new circuit with one sampled Pauli twirl applied: every
// two-qubit layer is wrapped in a pre- and post-TwirlLayer whose Paulis
// preserve the layer's logical operation. Layers containing non-twirlable
// gates are passed through unchanged.
func Instance(c *circuit.Circuit, scope Scope, rng *rand.Rand) (*circuit.Circuit, error) {
	n := c.NQubits
	out := circuit.New(n, c.NCBits)
	// Per-qubit stamps (1 + the layer index): which qubits the layer's own
	// instructions act on, and which hold a Pauli in its pre and post
	// twirl layers.
	k := max(n, 0)
	marks := make([]int, 3*k)
	active, inPre, inPost := marks[:k], marks[k:2*k], marks[2*k:]
	for li := range c.Layers {
		l := &c.Layers[li]
		if l.Kind != circuit.TwoQubitLayer {
			out.Layers = append(out.Layers, l.Clone())
			continue
		}
		stamp := li + 1
		gated := 0
		for i := range l.Instrs {
			in := &l.Instrs[i]
			if in.Gate == gates.Delay {
				continue
			}
			for _, q := range in.Qubits {
				mark(active, q, stamp)
			}
			if gates.NumQubits(in.Gate) == 2 {
				gated++
			}
		}
		if gated == 0 {
			out.Layers = append(out.Layers, l.Clone())
			continue
		}
		size := 2 * gated
		if scope == AllQubits {
			for _, s := range active {
				if s != stamp {
					size++
				}
			}
		}
		pre, post := newTwirlLayer(size, inPre, stamp), newTwirlLayer(size, inPost, stamp)
		ok := true
		for in := range l.TwoQubitGates() {
			q0, q1 := in.Qubits[0], in.Qubits[1]
			switch in.Gate {
			case gates.ECR, gates.CX, gates.SWAP:
				tab, err := TableFor(in.Gate)
				if err != nil {
					return nil, err
				}
				p := pauli.Pair{P0: twoPauli[rng.Intn(4)], P1: twoPauli[rng.Intn(4)]}
				q, _ := tab.InvertFor(p) // global sign is unobservable
				pre.add(p.P0, q0)
				pre.add(p.P1, q1)
				post.add(q.P0, q0)
				post.add(q.P1, q1)
			case gates.RZZ, gates.Ucan:
				// Twirl group restricted to the commutant {II, XX, YY, ZZ}.
				p := twoPauli[rng.Intn(4)]
				pre.add(p, q0)
				pre.add(p, q1)
				post.add(p, q0)
				post.add(p, q1)
			default:
				ok = false
			}
		}
		if !ok {
			out.Layers = append(out.Layers, l.Clone())
			continue
		}
		if scope == AllQubits {
			for q := 0; q < n; q++ {
				if active[q] == stamp {
					continue
				}
				p := twoPauli[rng.Intn(4)]
				pre.add(p, q)
				post.add(p, q)
			}
		}
		out.Layers = append(out.Layers, pre.l, l.Clone(), post.l)
	}
	return out, nil
}

// PropagateThroughLayer conjugates a Pauli string through the ideal action
// of a two-qubit Clifford layer: s -> L s L^dagger (sign tracked via the
// phase). Qubits without gates are unchanged. Used by the layer-fidelity
// protocol to know which Pauli to measure after d layer applications.
func PropagateThroughLayer(l *circuit.Layer, s pauli.String) (pauli.String, error) {
	out := pauli.String{Ops: append([]pauli.Pauli(nil), s.Ops...), Phase: s.Phase}
	for in := range l.TwoQubitGates() {
		tab, err := TableFor(in.Gate)
		if err != nil {
			return pauli.String{}, err
		}
		q0, q1 := in.Qubits[0], in.Qubits[1]
		c := tab.Conjugate(pauli.Pair{P0: out.Ops[q0], P1: out.Ops[q1]})
		out.Ops[q0], out.Ops[q1] = c.Out.P0, c.Out.P1
		if c.Sign < 0 {
			out.Phase = (out.Phase + 2) % 4
		}
	}
	return out, nil
}
