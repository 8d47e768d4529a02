// Scale tests: the qgraph toolkit was previously only exercised on
// <= 12-qubit toys; these run coloring, components, and bipartiteness on
// the 127-qubit Eagle heavy-hex lattice (an external test package so it
// can build the graph through the device generators without an import
// cycle — device imports qgraph).
package qgraph_test

import (
	"testing"

	"casq/internal/device"
	"casq/internal/qgraph"
)

func eagleGraphs(t *testing.T) (nn, crosstalk *qgraph.Graph, dev *device.Device) {
	t.Helper()
	dev, err := device.NewBackend("heavyhex127")
	if err != nil {
		t.Fatal(err)
	}
	return dev.CouplingGraph(), dev.CrosstalkGraph(), dev
}

// TestEagleComponents: the 127-qubit lattice is one connected component,
// and removing nothing else about it changes under the crosstalk overlay.
func TestEagleComponents(t *testing.T) {
	nn, xt, dev := eagleGraphs(t)
	if comps := nn.Components(); len(comps) != 1 || len(comps[0]) != dev.NQubits {
		t.Fatalf("NN graph: %d components, first has %d nodes", len(comps), len(comps[0]))
	}
	if comps := xt.Components(); len(comps) != 1 {
		t.Fatalf("crosstalk graph: %d components", len(comps))
	}
	// Edge counts: 144 couplers on the Eagle lattice plus the seeded NNN
	// collisions.
	if got := len(nn.Edges()); got != 144 {
		t.Errorf("Eagle NN graph has %d edges, want 144", got)
	}
	if got, want := len(xt.Edges()), 144+len(dev.NNNEdges); got != want {
		t.Errorf("crosstalk graph has %d edges, want %d", got, want)
	}
}

// TestEagleBipartite: heavy-hex NN cycles all have length 12, so the NN
// graph is bipartite; NNN collision edges connect even-distance pairs and
// must break two-colorability (that is exactly why CA-DD needs more than
// two Walsh indices on collision lattices).
func TestEagleBipartite(t *testing.T) {
	nn, xt, dev := eagleGraphs(t)
	if !nn.IsBipartite() {
		t.Error("heavy-hex NN graph must be bipartite")
	}
	if len(dev.NNNEdges) > 0 && xt.IsBipartite() {
		t.Error("crosstalk graph with NNN collisions should not be bipartite")
	}
}

// TestEagleGreedyColoringValid runs the constrained greedy coloring over
// the full 127-qubit crosstalk graph in degree order and validates it —
// the Algorithm 1 inner step at real-device scale.
func TestEagleGreedyColoringValid(t *testing.T) {
	_, xt, dev := eagleGraphs(t)
	all := make([]int, dev.NQubits)
	for i := range all {
		all[i] = i
	}
	order := qgraph.DegreeOrder(xt, all)
	if len(order) != dev.NQubits {
		t.Fatalf("degree order lost nodes: %d", len(order))
	}
	colors := make([]int, dev.NQubits)
	for i := range colors {
		colors[i] = -1
	}
	qgraph.GreedyColor(xt, order, colors, 0)
	c := qgraph.Coloring{}
	for n, col := range colors {
		if col >= 0 {
			c[n] = col
		}
	}
	if len(c) != dev.NQubits {
		t.Fatalf("coloring covers %d nodes, want %d", len(c), dev.NQubits)
	}
	if ok, bad := qgraph.ValidateColoring(xt, c); !ok {
		t.Fatalf("invalid coloring at edge %v", bad)
	}
	// Heavy-hex with sparse collisions colors with few colors; the greedy
	// bound is maxdeg+1 = 5 but in practice 3-4.
	if m := c.MaxColor(); m > 4 {
		t.Errorf("greedy used %d colors on heavy-hex, expected <= 5 total", m+1)
	}

	// Constrained variant: pre-assigned colors on the first plaquette and
	// a lowest color for the rest must be honored at scale, as CA-DD pins
	// gate controls and keeps color 0 off idle qubits.
	for i := range colors {
		colors[i] = -1
	}
	colors[0], colors[1] = 2, 3
	qgraph.GreedyColor(xt, order, colors, 1)
	if colors[0] != 2 || colors[1] != 3 {
		t.Error("fixed colors overridden")
	}
	c2 := qgraph.Coloring{}
	for n, col := range colors {
		if col == 0 {
			t.Errorf("node %d got color 0, below the lowest allowed", n)
		}
		c2[n] = col
	}
	if ok, bad := qgraph.ValidateColoring(xt, c2); !ok {
		t.Fatalf("constrained coloring invalid at %v", bad)
	}
}
