package device

import (
	"fmt"
	"math/rand"
	"sort"

	"casq/internal/qgraph"
)

// Topology is the connectivity half of a device: which qubits exist, which
// pairs are coupled (with a fixed ECR direction per coupler), and which
// next-nearest-neighbor pairs carry collision-enhanced ZZ. A Topology knows
// nothing about rates — Synthesize marries it to a seeded Calibration, and
// the backend registry names the resulting devices.
//
// Couplers are kept in declaration order: seeded calibration synthesis draws
// parameters coupler by coupler, so the order is part of a synthetic
// backend's identity (the same topology declared in a different order is a
// different random device).
type Topology struct {
	Name    string `json:"name"`
	NQubits int    `json:"n_qubits"`
	// Couplers lists NN couplings in declaration order; each entry's
	// (Src, Dst) fixes the ECR direction of that edge.
	Couplers []Directed `json:"couplers"`
	// NNN lists collision-enhanced next-nearest-neighbor pairs.
	NNN []Edge `json:"nnn,omitempty"`
}

// Validate checks qubit ranges, self-couplings, and that no coupler or NNN
// edge is listed twice or names a coupler's edge.
func (t Topology) Validate() error {
	if t.NQubits <= 0 {
		return fmt.Errorf("device: topology %q has %d qubits", t.Name, t.NQubits)
	}
	inRange := func(q int) bool { return q >= 0 && q < t.NQubits }
	seen := map[Edge]bool{}
	for _, c := range t.Couplers {
		if !inRange(c.Src) || !inRange(c.Dst) || c.Src == c.Dst {
			return fmt.Errorf("device: topology %q: bad coupler %v", t.Name, c)
		}
		e := NewEdge(c.Src, c.Dst)
		if seen[e] {
			return fmt.Errorf("device: topology %q: duplicate coupler on edge %v", t.Name, e)
		}
		seen[e] = true
	}
	for _, e := range t.NNN {
		if !inRange(e.A) || !inRange(e.B) || e.A >= e.B {
			return fmt.Errorf("device: topology %q: bad NNN edge %v", t.Name, e)
		}
		if seen[e] {
			return fmt.Errorf("device: topology %q: NNN edge %v repeats a coupler or NNN edge", t.Name, e)
		}
		seen[e] = true
	}
	return nil
}

// Graph builds the NN coupling graph of the topology.
func (t Topology) Graph() *qgraph.Graph {
	g := qgraph.New(t.NQubits)
	for _, c := range t.Couplers {
		g.AddEdge(c.Src, c.Dst)
	}
	return g
}

// LineTopology is an n-qubit line with alternating ECR directions (even
// qubit controls its right neighbor), the layout of the paper's Ising
// chain experiments.
func LineTopology(name string, n int) Topology {
	return Topology{Name: name, NQubits: n, Couplers: LineEdges(n)}
}

// RingTopology is an n-qubit ring (a line closed by one extra coupler), the
// layout of the 12-spin Heisenberg experiment.
func RingTopology(name string, n int) Topology {
	return Topology{Name: name, NQubits: n, Couplers: RingEdges(n)}
}

// GridTopology is a rows x cols square lattice. Qubit (r, c) has index
// r*cols + c; couplers run rightward and downward, directed away from the
// even-checkerboard sites so no qubit is both control and target of the
// same neighbor.
func GridTopology(name string, rows, cols int) Topology {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("device: grid %dx%d", rows, cols))
	}
	t := Topology{Name: name, NQubits: rows * cols}
	idx := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			q := idx(r, c)
			if c+1 < cols {
				if (r+c)%2 == 0 {
					t.Couplers = append(t.Couplers, Directed{q, idx(r, c+1)})
				} else {
					t.Couplers = append(t.Couplers, Directed{idx(r, c+1), q})
				}
			}
			if r+1 < rows {
				if (r+c)%2 == 0 {
					t.Couplers = append(t.Couplers, Directed{q, idx(r+1, c)})
				} else {
					t.Couplers = append(t.Couplers, Directed{idx(r+1, c), q})
				}
			}
		}
	}
	return t
}

// HeavyHexTopology is the parametric heavy-hexagon lattice of IBM's
// fixed-frequency processors: `rows` full qubit rows of up to `cols`
// qubits, with bridge qubits between consecutive rows every fourth column,
// offset by two columns on alternating gaps. The first row omits its last
// column and the last row its first, reproducing the truncation of the
// production lattices: (3, 9) is a 29-qubit Falcon-class patch, (5, 11)
// the 65-qubit Hummingbird lattice, and (7, 15) the 127-qubit Eagle
// lattice. rows must be odd so the boundary rows are truncated
// symmetrically.
//
// Qubits are numbered row-major: each qubit row left to right, then the
// bridge row below it. Horizontal couplers are directed left-to-right from
// even columns; bridges are directed top-down into and out of the bridge
// qubit.
func HeavyHexTopology(name string, rows, cols int) Topology {
	if rows < 3 || rows%2 == 0 || cols < 5 {
		panic(fmt.Sprintf("device: heavy-hex needs odd rows >= 3 and cols >= 5, got %dx%d", rows, cols))
	}
	// Column span of qubit row r.
	span := func(r int) (lo, hi int) {
		switch r {
		case 0:
			return 0, cols - 2
		case rows - 1:
			return 1, cols - 1
		default:
			return 0, cols - 1
		}
	}
	t := Topology{Name: name}
	// First pass: assign indices row-major — each qubit row left to right,
	// then the bridge qubits of the gap below it.
	type cell struct{ r, c int }
	index := map[cell]int{}
	type bridge struct{ r, c, q int } // bridge qubit q in the gap below row r at column c
	var bridges []bridge
	n := 0
	for r := 0; r < rows; r++ {
		lo, hi := span(r)
		for c := lo; c <= hi; c++ {
			index[cell{r, c}] = n
			n++
		}
		if r+1 < rows {
			// Bridge columns: every fourth column, starting at 0 for even
			// gaps and 2 for odd gaps, restricted to columns present in
			// both adjacent rows.
			nlo, nhi := span(r + 1)
			blo, bhi := max(lo, nlo), min(hi, nhi)
			for c := 2 * (r % 2); c <= bhi; c += 4 {
				if c < blo {
					continue
				}
				bridges = append(bridges, bridge{r, c, n})
				n++
			}
		}
	}
	t.NQubits = n
	// Second pass: horizontal couplers of each row, then its gap's bridges.
	bi := 0
	for r := 0; r < rows; r++ {
		lo, hi := span(r)
		for c := lo; c < hi; c++ {
			a, b := index[cell{r, c}], index[cell{r, c + 1}]
			if c%2 == 0 {
				t.Couplers = append(t.Couplers, Directed{a, b})
			} else {
				t.Couplers = append(t.Couplers, Directed{b, a})
			}
		}
		for bi < len(bridges) && bridges[bi].r == r {
			br := bridges[bi]
			t.Couplers = append(t.Couplers,
				Directed{index[cell{r, br.c}], br.q},
				Directed{br.q, index[cell{r + 1, br.c}]})
			bi++
		}
	}
	return t
}

// SampleCollisions draws a sparse, seeded set of next-nearest-neighbor
// frequency-collision pairs for a topology: each pair of qubits at NN
// distance exactly two is promoted to a collision edge with probability
// prob. Pairs are visited in sorted order so the draw is reproducible.
func SampleCollisions(t Topology, seed int64, prob float64) []Edge {
	g := t.Graph()
	var cand []Edge
	seen := map[Edge]bool{}
	for q := 0; q < t.NQubits; q++ {
		for _, a := range g.Neighbors(q) {
			for _, b := range g.Neighbors(a) {
				if b == q || g.HasEdge(q, b) {
					continue
				}
				e := NewEdge(q, b)
				if !seen[e] {
					seen[e] = true
					cand = append(cand, e)
				}
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].A != cand[j].A {
			return cand[i].A < cand[j].A
		}
		return cand[i].B < cand[j].B
	})
	rng := rand.New(rand.NewSource(seed))
	var out []Edge
	for _, e := range cand {
		if rng.Float64() < prob {
			out = append(out, e)
		}
	}
	return out
}
