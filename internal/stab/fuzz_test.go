package stab

import (
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/sched"
	"casq/internal/sim"
)

// fuzzGates is the gate alphabet of FuzzStabOutcomesPossible: one-qubit
// Cliffords on any qubit, then two-qubit Cliffords on line neighbours.
var fuzzGates = []gates.Kind{
	gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg, gates.XGate, gates.YGate, gates.ZGate,
	gates.CX, gates.ECR, gates.SWAP,
}

// fuzzCircuit decodes data into a 4-qubit Clifford circuit, one gate per
// layer and two bytes per gate (kind, then qubit or neighbour pair with
// its direction), followed by a measurement of every qubit into the
// classical bit of the same index. The measured copy and an unmeasured
// copy (for the statevector reference) are returned.
func fuzzCircuit(data []byte) (measured, bare *circuit.Circuit) {
	const nq, maxGates = 4, 64
	bare = circuit.New(nq, nq)
	for i := 0; i+1 < len(data) && i/2 < maxGates; i += 2 {
		g, arg := fuzzGates[int(data[i])%len(fuzzGates)], int(data[i+1])
		if gates.NumQubits(g) == 1 {
			bare.AddLayer(circuit.OneQubitLayer).Add(circuit.Instruction{Gate: g, Qubits: []int{arg % nq}})
			continue
		}
		a, b := arg%(nq-1), arg%(nq-1)+1
		if arg/(nq-1)%2 == 1 {
			a, b = b, a
		}
		bare.AddLayer(circuit.TwoQubitLayer).Add(circuit.Instruction{Gate: g, Qubits: []int{a, b}})
	}
	measured = bare.Clone()
	m := measured.AddLayer(circuit.MeasureLayer)
	for q := 0; q < nq; q++ {
		m.Measure(q, q)
	}
	return measured, bare
}

// FuzzStabOutcomesPossible runs random Clifford circuits noiselessly on
// the stabilizer engine and requires every sampled bitstring to be a
// possible outcome of the exact statevector: the tableau's measurement
// update and the frame sampler may not invent outcomes, and may not fail
// on a circuit Supports accepts.
func FuzzStabOutcomesPossible(f *testing.F) {
	dev := device.NewLine("fuzz4", 4, device.DefaultOptions())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, bare := fuzzCircuit(data)
		sched.Schedule(c, dev)
		sched.Schedule(bare, dev)
		res, err := New(dev, noiselessCfg(64)).Counts(c)
		if err != nil {
			t.Fatalf("stab: %v", err)
		}
		psi, err := sim.New(dev, sim.Ideal()).FinalState(bare)
		if err != nil {
			t.Fatalf("statevector: %v", err)
		}
		for key := range res.Counts {
			b := 0
			for q := range key {
				if key[q] == '1' {
					b |= 1 << q
				}
			}
			if p := real(psi[b])*real(psi[b]) + imag(psi[b])*imag(psi[b]); p <= 1e-9 {
				t.Fatalf("%v: sampled %s has statevector probability %g", c, key, p)
			}
		}
	})
}

// FuzzTableauMatchesPropagation is checkPropagation on decoded input:
// the first byte gives n = 1 + byte mod 130, the next ceil(n/8) bytes S as
// a little-endian qubit bitmask, and the rest three bytes per gate (kind,
// then two qubit draws; see propStep).
func FuzzTableauMatchesPropagation(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%130
		data = data[1:]
		S := make([]bool, n)
		for q := range S {
			S[q] = q/8 < len(data) && data[q/8]>>(q%8)&1 == 1
		}
		data = data[min(len(data), (n+7)/8):]
		var steps []tabStep
		for i := 0; i+2 < len(data) && len(steps) < 1024; i += 3 {
			if s, ok := propStep(int(data[i])%propKinds, int(data[i+1]), int(data[i+2]), n); ok {
				steps = append(steps, s)
			}
		}
		checkPropagation(t, n, steps, [][]bool{S})
	})
}
