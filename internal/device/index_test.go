package device

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"casq/internal/qgraph"
)

// The references below are the topology queries as Device answered them
// before the topology index: a scan of Edges, a scan-and-sort for
// neighbors, and graphs built fresh on every call.

func refHasEdge(d *Device, a, b int) bool {
	e := NewEdge(a, b)
	for _, x := range d.Edges {
		if x == e {
			return true
		}
	}
	return false
}

func refNeighbors(d *Device, q int) []int {
	var out []int
	for _, e := range d.Edges {
		if e.A == q {
			out = append(out, e.B)
		} else if e.B == q {
			out = append(out, e.A)
		}
	}
	sort.Ints(out)
	return out
}

func refCouplingGraph(d *Device) *qgraph.Graph {
	g := qgraph.New(d.NQubits)
	for _, e := range d.Edges {
		g.AddEdge(e.A, e.B)
	}
	return g
}

func refCrosstalkGraph(d *Device) *qgraph.Graph {
	g := qgraph.New(d.NQubits)
	for _, e := range d.AllCrosstalkEdges() {
		g.AddEdge(e.A, e.B)
	}
	return g
}

// literalDevice is a Device built as a struct literal, the way a facade
// caller can: no constructor, so no topology index. Qubit 5 is isolated,
// so its hop distances are -1.
func literalDevice() *Device {
	return &Device{
		Topology: Topology{Name: "literal6", NQubits: 6},
		Edges:    []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		NNNEdges: []Edge{{1, 3}},
	}
}

// indexCases lists a device of every kind of origin: each registered
// backend, a snapshot import, an induced sub-device, a drifted copy and a
// struct literal.
func indexCases(t *testing.T) map[string]*Device {
	t.Helper()
	out := map[string]*Device{}
	for _, name := range BackendNames() {
		d, err := NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = d
	}
	hex := out["heavyhex29"]
	snap, err := FromSnapshot(hex.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	out["snapshot"] = snap
	// A region holding heavyhex29's NNN edge {8,11} and an isolated qubit.
	sub, _, err := hex.Induced("sub", []int{0, 1, 2, 3, 8, 10, 11, 12, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.NNNEdges) == 0 {
		t.Fatal("induced fixture lost its NNN edge")
	}
	out["induced"] = sub
	out["perturbed"] = hex.Perturb(7, 0.3)
	out["literal"] = literalDevice()
	return out
}

// graphsEqual compares two graphs node by node.
func graphsEqual(a, b *qgraph.Graph) bool {
	if a.N != b.N {
		return false
	}
	for q := 0; q < a.N; q++ {
		if !slices.Equal(a.Neighbors(q), b.Neighbors(q)) {
			return false
		}
	}
	return true
}

// checkAgainstReference compares every topology query of d with the code
// the index replaced, on every qubit pair and one qubit past each end.
func checkAgainstReference(t *testing.T, name string, d *Device) {
	for a := -1; a <= d.NQubits; a++ {
		if got, want := d.Neighbors(a), refNeighbors(d, a); !slices.Equal(got, want) {
			t.Errorf("%s: Neighbors(%d) = %v, reference %v", name, a, got, want)
		}
		for b := -1; b <= d.NQubits; b++ {
			if got, want := d.HasEdge(a, b), refHasEdge(d, a, b); got != want {
				t.Errorf("%s: HasEdge(%d,%d) = %v, reference %v", name, a, b, got, want)
			}
		}
	}
	if !graphsEqual(d.CouplingGraph(), refCouplingGraph(d)) {
		t.Errorf("%s: coupling graph differs from a fresh build", name)
	}
	if !graphsEqual(d.CrosstalkGraph(), refCrosstalkGraph(d)) {
		t.Errorf("%s: crosstalk graph differs from a fresh build", name)
	}
	want := refCouplingGraph(d).AllDistances()
	got := d.HopDistances()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hop rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("%s: hop row %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

// TestIndexMatchesReference checks the topology index against the code it
// replaced on a device of every origin.
func TestIndexMatchesReference(t *testing.T) {
	for name, d := range indexCases(t) {
		checkAgainstReference(t, name, d)
	}
}

// TestIndexSharing pins who shares a topology index: every NewBackend
// build of a standard backend and every Perturb share their source's, and
// a Perturb shares its source's Edges, NNNEdges and ECRDir too;
// FromSnapshot and Induced build their own; a struct literal has none
// and builds a private one per call.
func TestIndexSharing(t *testing.T) {
	a, err := NewBackend("heavyhex127")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewBackend("heavyhex127")
	if a.topo == nil || a.topo != b.topo {
		t.Fatal("two NewBackend builds of heavyhex127 do not share a topology index")
	}
	if &a.HopDistances()[0][0] != &b.HopDistances()[0][0] {
		t.Error("two NewBackend builds of heavyhex127 hold different hop matrices")
	}
	p := a.Perturb(3, 0.2).Perturb(4, 0.2)
	if p.topo != a.topo || p.CouplingGraph() != a.CouplingGraph() {
		t.Error("Perturb does not share its source's topology index")
	}
	if &p.Edges[0] != &a.Edges[0] || &p.NNNEdges[0] != &a.NNNEdges[0] ||
		reflect.ValueOf(p.ECRDir).UnsafePointer() != reflect.ValueOf(a.ECRDir).UnsafePointer() {
		t.Error("Perturb does not share its source's Edges, NNNEdges and ECRDir")
	}
	s, err := FromSnapshot(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if s.topo == nil || s.topo == a.topo {
		t.Error("FromSnapshot must build its own topology index")
	}
	sub, _, err := a.Induced("sub", []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.topo == nil || sub.topo == a.topo {
		t.Error("Induced must build its own topology index")
	}
	lit := literalDevice()
	if lit.CouplingGraph() == lit.CouplingGraph() || lit.topo != nil {
		t.Error("a struct literal must build a private index per call and keep none")
	}
}

// TestIndexFirstUseConcurrent has 8 goroutines build devices and read
// them, and a struct literal, at once. Registry indexes live for the
// process, so an earlier test may already have built heavyhex65's; the
// devices of a new builder of the kind registerTopo installs are sure to
// race the first builds of their index, its crosstalk graph and its hop
// matrix. Run under -race.
func TestIndexFirstUseConcurrent(t *testing.T) {
	topo := HeavyHexTopology("race127", 7, 15)
	topo.NNN = SampleCollisions(topo, 127, 0.04)
	build := sharedIndexBuilder(topo, DefaultOptions())
	lit := literalDevice()
	const readers = 8
	devs := make([]*Device, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := build()
			devs[i] = d
			hex, err := NewBackend("heavyhex65")
			if err != nil {
				t.Error(err)
				return
			}
			for _, x := range []*Device{d, hex, lit} {
				last := x.NQubits - 1
				if x.HopDistances()[0][0] != 0 || x.CrosstalkGraph().N != x.NQubits ||
					len(x.Neighbors(last)) != x.CouplingGraph().Degree(last) || x.HasEdge(0, 0) {
					t.Errorf("%s: inconsistent topology read", x.Name)
				}
			}
		}()
	}
	wg.Wait()
	for i, d := range devs {
		if d.topo != devs[0].topo {
			t.Fatalf("reader %d got its own topology index", i)
		}
	}
	checkAgainstReference(t, "race127", devs[0])
	checkAgainstReference(t, "literal", lit)
}
