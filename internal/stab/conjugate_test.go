package stab

import (
	"fmt"
	"math/rand"
	"testing"

	"casq/internal/circuit"
	"casq/internal/gates"
	"casq/internal/pauli"
	"casq/internal/twirl"
)

// conjugateLayer conjugates a Pauli string through the ideal action of a
// two-qubit Clifford layer on bit-packed X/Z masks: s -> L s L^dagger
// with the sign tracked in the phase (0 or 2 added). It is an independent
// implementation of twirl.PropagateThroughLayer, which the tests below
// cross-check against it.
func conjugateLayer(l *circuit.Layer, s pauli.String) (pauli.String, error) {
	n := len(s.Ops)
	words := (n + 63) / 64
	px := make([]uint64, words)
	pz := make([]uint64, words)
	for q, p := range s.Ops {
		xb, zb := xzFromPauli(p)
		px[q/64] |= xb << (q % 64)
		pz[q/64] |= zb << (q % 64)
	}
	neg := false
	for in := range l.TwoQubitGates() {
		tab := clifford2For(in.Gate, in.Params)
		if tab == nil {
			return pauli.String{}, fmt.Errorf("stab: %s is not Clifford", in.Gate)
		}
		q0, q1 := in.Qubits[0], in.Qubits[1]
		w0, b0 := q0/64, uint(q0%64)
		w1, b1 := q1/64, uint(q1%64)
		p0 := pauliFromXZ((px[w0]>>b0)&1, (pz[w0]>>b0)&1)
		p1 := pauliFromXZ((px[w1]>>b1)&1, (pz[w1]>>b1)&1)
		c := tab.Conjugate(pauli.Pair{P0: p0, P1: p1})
		nx0, nz0 := xzFromPauli(c.Out.P0)
		nx1, nz1 := xzFromPauli(c.Out.P1)
		px[w0] = px[w0]&^(1<<b0) | nx0<<b0
		pz[w0] = pz[w0]&^(1<<b0) | nz0<<b0
		px[w1] = px[w1]&^(1<<b1) | nx1<<b1
		pz[w1] = pz[w1]&^(1<<b1) | nz1<<b1
		if c.Sign < 0 {
			neg = !neg
		}
	}
	out := pauli.NewString(n)
	out.Phase = s.Phase
	if neg {
		out.Phase = (out.Phase + 2) % 4
	}
	for q := 0; q < n; q++ {
		w, b := q/64, uint(q%64)
		out.Ops[q] = pauliFromXZ((px[w]>>b)&1, (pz[w]>>b)&1)
	}
	return out, nil
}

// randomCliffordLayer builds a two-qubit layer of random ECR/CX/SWAP gates
// on random disjoint pairs of n qubits.
func randomCliffordLayer(n int, rng *rand.Rand) *circuit.Layer {
	l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
	perm := rng.Perm(n)
	kinds := []gates.Kind{gates.ECR, gates.CX, gates.SWAP}
	pairs := rng.Intn(n/2) + 1
	for i := 0; i < pairs; i++ {
		g := kinds[rng.Intn(len(kinds))]
		l.Add(circuit.Instruction{Gate: g, Qubits: []int{perm[2*i], perm[2*i+1]}})
	}
	return l
}

func randomPauliString(n int, rng *rand.Rand) pauli.String {
	s := pauli.NewString(n)
	for q := 0; q < n; q++ {
		s.Ops[q] = pauli.Pauli(rng.Intn(4))
	}
	if rng.Intn(2) == 1 {
		s.Phase = 2
	}
	return s
}

// TestPropagateMatchesTableauConjugation checks twirl.PropagateThroughLayer
// (per-gate Pair lookups on a pauli.String) against conjugateLayer
// (bit-packed masks) on randomized Clifford layers and random Pauli
// strings: the two must agree exactly, sign included.
func TestPropagateMatchesTableauConjugation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(8)
		l := randomCliffordLayer(n, rng)
		s := randomPauliString(n, rng)

		want, err := twirl.PropagateThroughLayer(l, s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := conjugateLayer(l, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ops) != len(want.Ops) {
			t.Fatalf("trial %d: length mismatch", trial)
		}
		for q := range want.Ops {
			if got.Ops[q] != want.Ops[q] {
				t.Fatalf("trial %d (n=%d, layer %v):\n  in   %v\n  want %v\n  got  %v",
					trial, n, l.Instrs, s, want, got)
			}
		}
		if ((got.Phase%4)+4)%4 != ((want.Phase%4)+4)%4 {
			t.Fatalf("trial %d: phase mismatch: want i^%d, got i^%d (in %v -> %v)",
				trial, want.Phase, got.Phase, s, want)
		}
	}
}

// TestPropagateDepthComposition checks that conjugating through d repeated
// layers with either implementation stays in lockstep — the exact access
// pattern the layer-fidelity protocol uses.
func TestPropagateDepthComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 6
		l := randomCliffordLayer(n, rng)
		a := randomPauliString(n, rng)
		b := pauli.String{Ops: append([]pauli.Pauli(nil), a.Ops...), Phase: a.Phase}
		for d := 0; d < 5; d++ {
			var err error
			if a, err = twirl.PropagateThroughLayer(l, a); err != nil {
				t.Fatal(err)
			}
			if b, err = conjugateLayer(l, b); err != nil {
				t.Fatal(err)
			}
			for q := range a.Ops {
				if a.Ops[q] != b.Ops[q] {
					t.Fatalf("trial %d depth %d: divergence at qubit %d", trial, d, q)
				}
			}
			if ((a.Phase%4)+4)%4 != ((b.Phase%4)+4)%4 {
				t.Fatalf("trial %d depth %d: phase divergence", trial, d)
			}
		}
	}
}
