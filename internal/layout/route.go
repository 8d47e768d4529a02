package layout

import (
	"fmt"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/qgraph"
)

// RouteCircuit makes every two-qubit gate of c act on device-adjacent
// qubits: gates already on coupled pairs pass through untouched, and each
// non-adjacent gate is preceded by a chain of SWAPs walking one operand
// along a shortest coupling-graph path until the pair is adjacent. SWAPs
// permute circuit wires, so all later instructions (including measurements)
// are rewritten through the accumulated permutation.
//
// It returns the routed circuit (always on dev.NQubits qubits — SWAP chains
// may pass through qubits the input circuit never touched), the final
// wire -> qubit positions, and the number of SWAPs inserted. A circuit
// whose gates are all adjacent routes to itself with zero SWAPs and an
// identity position map.
//
// Inserted SWAP layers serialize against the layer that needed them, so a
// routed layer's gates are no longer simultaneous; that is the real
// schedule cost of a bad embedding, and the layout scorer sees it.
func RouteCircuit(dev *device.Device, c *circuit.Circuit) (*circuit.Circuit, []int, int, error) {
	if c.NQubits > dev.NQubits {
		return nil, nil, 0, fmt.Errorf("layout: circuit on %d qubits exceeds device %s (%d)", c.NQubits, dev.Name, dev.NQubits)
	}
	return route(dev, c, nil)
}

// route is RouteCircuit(dev, Remap(c, f, dev.NQubits)) without Remap's
// copy: each instruction is copied once, its operands mapped through f
// (the identity when f is nil) and then through the SWAP permutation. Each
// routed layer's Instrs is sized from its source layer; an empty source
// layer keeps nil Instrs, as Layer.Add would leave it.
func route(dev *device.Device, c *circuit.Circuit, f []int) (*circuit.Circuit, []int, int, error) {
	n := dev.NQubits
	perm := make([]int, n) // wire -> physical qubit
	inv := make([]int, n)  // physical qubit -> wire
	for i := range perm {
		perm[i] = i
		inv[i] = i
	}
	g := dev.CouplingGraph()
	out := circuit.New(n, c.NCBits)
	swaps := 0

	applySwap := func(pa, pb int) {
		l := out.AddLayer(circuit.TwoQubitLayer)
		l.Add(circuit.Instruction{Gate: gates.SWAP, Qubits: []int{pa, pb}, Tag: "route"})
		wa, wb := inv[pa], inv[pb]
		perm[wa], perm[wb] = pb, pa
		inv[pa], inv[pb] = wb, wa
		swaps++
	}
	// mapOperands writes src's operands, as physical qubits, into dst.
	mapOperands := func(dst, src []int) {
		for qi, q := range src {
			if f != nil {
				q = f[q]
			}
			dst[qi] = perm[q]
		}
	}

	for _, l := range c.Layers {
		cur := out.AddLayer(l.Kind)
		if len(l.Instrs) > 0 {
			cur.Instrs = make([]circuit.Instruction, 0, len(l.Instrs))
		}
		for ii, in := range l.Instrs {
			mapped := in.Clone()
			mapOperands(mapped.Qubits, in.Qubits)
			if gates.NumQubits(in.Gate) == 2 && !g.HasEdge(mapped.Qubits[0], mapped.Qubits[1]) {
				path := shortestPath(g, mapped.Qubits[0], mapped.Qubits[1])
				if path == nil {
					return nil, nil, 0, fmt.Errorf("layout: qubits %d and %d are disconnected on %s",
						mapped.Qubits[0], mapped.Qubits[1], dev.Name)
				}
				// Walk the first operand down the path until adjacent,
				// splitting the layer around the SWAP chain.
				if len(cur.Instrs) == 0 {
					out.Layers = out.Layers[:len(out.Layers)-1]
				}
				for i := 0; i+2 < len(path); i++ {
					applySwap(path[i], path[i+1])
				}
				mapOperands(mapped.Qubits, in.Qubits)
				cur = out.AddLayer(l.Kind)
				cur.Instrs = make([]circuit.Instruction, 0, len(l.Instrs)-ii)
			}
			cur.Add(mapped)
		}
		if len(cur.Instrs) == 0 && l.Kind != circuit.TwoQubitLayer {
			// Keep empty non-gate layers out entirely; empty 2q layers can
			// appear in synthetic inputs and are harmless either way.
			out.Layers = out.Layers[:len(out.Layers)-1]
		}
	}
	final := append([]int(nil), perm...)
	if err := out.Validate(); err != nil {
		return nil, nil, 0, fmt.Errorf("layout: routed circuit invalid: %w", err)
	}
	return out, final, swaps, nil
}

// shortestPath BFSes from a to b, returning the vertex path inclusive.
func shortestPath(g *qgraph.Graph, a, b int) []int {
	prev := make([]int, g.N)
	for i := range prev {
		prev[i] = -1
	}
	prev[a] = a
	queue := []int{a}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == b {
			var rev []int
			for v := b; ; v = prev[v] {
				rev = append(rev, v)
				if v == a {
					break
				}
			}
			path := make([]int, len(rev))
			for i, v := range rev {
				path[len(rev)-1-i] = v
			}
			return path
		}
		for _, v := range g.Neighbors(u) {
			if prev[v] == -1 {
				prev[v] = u
				queue = append(queue, v)
			}
		}
	}
	return nil
}
