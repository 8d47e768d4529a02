package device

import (
	"sync"

	"casq/internal/qgraph"
)

// topoIndex is the read-only view of a device's topology that the passes
// share: the NN coupling graph, built with the index, and the crosstalk
// graph and coupling hop matrix, each built on first use. It holds no
// calibration, so a device and every Perturb of it can share one index,
// and the registry shares one across all builds of a backend.
type topoIndex struct {
	coupling  *qgraph.Graph
	crosstalk func() *qgraph.Graph
	hops      func() [][]int
}

// newTopoIndex indexes the device's materialized edge lists, the same
// fields Validate checks.
func newTopoIndex(d *Device) *topoIndex {
	n, nn, nnn := d.NQubits, d.Edges, d.NNNEdges
	x := &topoIndex{coupling: qgraph.New(n)}
	for _, e := range nn {
		x.coupling.AddEdge(e.A, e.B)
	}
	x.crosstalk = sync.OnceValue(func() *qgraph.Graph {
		g := qgraph.New(n)
		for _, edges := range [2][]Edge{nn, nnn} {
			for _, e := range edges {
				g.AddEdge(e.A, e.B)
			}
		}
		return g
	})
	x.hops = sync.OnceValue(x.coupling.AllDistances)
	return x
}

// index returns the device's topology index. A Device built as a struct
// literal has none and gets a private one per call, which is what every
// topology query used to cost.
func (d *Device) index() *topoIndex {
	if d.topo != nil {
		return d.topo
	}
	return newTopoIndex(d)
}
