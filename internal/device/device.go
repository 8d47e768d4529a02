// Package device models the quantum processors the compiler targets. It is
// organized as a Topology / Calibration split:
//
//   - Topology (topology.go) is pure connectivity — qubit count, directed
//     couplers, collision NNN pairs — with first-class generator families:
//     line, ring, grid, and the parametric heavy-hex lattice up to the
//     127-qubit Eagle geometry.
//   - Calibration is the measured half a context-aware compiler consumes:
//     always-on ZZ rates, Stark shifts, charge-parity frequencies,
//     coherence times, gate/readout errors and durations. It is
//     JSON-serializable through Snapshot (snapshot.go) so calibrations can
//     be exported, re-imported bit-identically, and perturbed for drift
//     scenario sweeps.
//   - Device = materialized Topology + Calibration. Synthesize draws a
//     seeded synthetic calibration for a topology; the backend registry
//     (registry.go) names ready-made devices from 6 to 127 qubits that the
//     experiment layers address by name.
//
// The paper runs on IBM Quantum backends; casq substitutes seeded synthetic
// backends whose parameters sit in the ranges the paper reports (ZZ of tens
// of kHz, Stark ~20 kHz, NNN 0.1 kHz rising to ~10 kHz at frequency
// collisions). CA-EC reads rates from this calibration exactly the way the
// paper reads IBM backend properties.
package device

import (
	"fmt"
	"math/rand"
	"sort"

	"casq/internal/qgraph"
)

// Edge is a normalized undirected qubit pair (A < B).
type Edge struct {
	A int `json:"a"`
	B int `json:"b"`
}

// NewEdge normalizes the pair ordering.
func NewEdge(a, b int) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// Directed is an ordered qubit pair, used for ECR direction and for Stark
// shifts (drive on Src shifts Dst).
type Directed struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// Calibration is the measured half of a device: every rate, coherence time,
// error probability, and duration the context-aware passes read. It is
// deliberately free of connectivity — the same struct can be exported,
// drifted, and re-attached to its topology (see Snapshot and Perturb).
type Calibration struct {
	// Coherent crosstalk calibration (Hz).
	ZZ    map[Edge]float64     // always-on ZZ rate nu per edge (NN and NNN)
	Stark map[Directed]float64 // Stark shift on Dst while a gate drives Src
	Delta []float64            // charge-parity frequency per qubit
	// Quasistatic is the per-qubit standard deviation (Hz) of slow
	// low-frequency Z detuning noise: constant within a shot, Gaussian
	// across shots. This is the temporally correlated incoherent noise that
	// DD suppresses but error compensation cannot (paper Sec. III B).
	Quasistatic []float64

	// Incoherent calibration.
	T1         []float64 // ns
	T2         []float64 // ns
	Err1Q      []float64 // depolarizing probability per 1q gate
	Err2Q      map[Edge]float64
	ReadoutErr []float64 // assignment error per qubit

	// Durations (ns).
	Dur1Q   float64
	DurECR  float64
	DurMeas float64
	DurFF   float64 // classical feed-forward latency

	// RotaryResidual in [0,1]: fraction of crosstalk involving an ECR target
	// that survives the rotary echo (0 = perfect rotary suppression).
	RotaryResidual float64
}

// Clone deep-copies the calibration.
func (c Calibration) Clone() Calibration {
	out := c
	out.ZZ = make(map[Edge]float64, len(c.ZZ))
	for k, v := range c.ZZ {
		out.ZZ[k] = v
	}
	out.Stark = make(map[Directed]float64, len(c.Stark))
	for k, v := range c.Stark {
		out.Stark[k] = v
	}
	out.Err2Q = make(map[Edge]float64, len(c.Err2Q))
	for k, v := range c.Err2Q {
		out.Err2Q[k] = v
	}
	out.Delta = append([]float64(nil), c.Delta...)
	out.Quasistatic = append([]float64(nil), c.Quasistatic...)
	out.T1 = append([]float64(nil), c.T1...)
	out.T2 = append([]float64(nil), c.T2...)
	out.Err1Q = append([]float64(nil), c.Err1Q...)
	out.ReadoutErr = append([]float64(nil), c.ReadoutErr...)
	return out
}

// Device is a materialized target: a topology plus the derived edge tables
// the passes index, plus its calibration.
//
// The topology fields (Topology, Edges, NNNEdges, ECRDir) are read-only
// once a constructor (Synthesize, FromSnapshot, Induced, Perturb,
// NewBackend) has returned the device: the device's topology index, which
// CouplingGraph, CrosstalkGraph, Neighbors, HasEdge and HopDistances read,
// is built from them then and shared, by every NewBackend build of a
// standard backend and by every Perturb of the device, which shares the
// fields themselves too. The calibration fields hold no index and may be
// written: both engines compile on every call, so a write takes effect at
// the next call.
type Device struct {
	Topology

	// Materialized connectivity, derived from Topology.Couplers/NNN: the
	// sorted NN edge list, the collision NNN edges, and the ECR direction
	// per coupled edge.
	Edges    []Edge
	NNNEdges []Edge
	ECRDir   map[Edge]Directed

	Calibration

	// topo is the shared topology index (index.go); nil on a Device built
	// as a struct literal.
	topo *topoIndex
}

// HasEdge reports whether (a, b) is a NN coupling.
func (d *Device) HasEdge(a, b int) bool {
	return d.index().coupling.HasEdge(a, b)
}

// Neighbors returns the sorted NN neighbors of q, nil for a qubit outside
// the device. The slice is the topology index's own, shared by every
// device that shares the index: callers must not write to it. Its capacity
// equals its length, so appending to it copies.
func (d *Device) Neighbors(q int) []int {
	g := d.index().coupling
	if q < 0 || q >= g.N {
		return nil
	}
	return g.Neighbors(q)
}

// ZZRate returns the always-on ZZ rate (Hz) between a and b, or 0 if they
// are not coupled (directly or via an NNN collision).
func (d *Device) ZZRate(a, b int) float64 {
	return d.ZZ[NewEdge(a, b)]
}

// AllCrosstalkEdges returns NN followed by NNN edges.
func (d *Device) AllCrosstalkEdges() []Edge {
	out := append([]Edge(nil), d.Edges...)
	return append(out, d.NNNEdges...)
}

// CrosstalkGraph returns the qubit crosstalk graph used by Algorithm 1: an
// edge wherever a nonzero ZZ term exists (NN couplings plus NNN collision
// edges). It is built on first use and shared through the topology index:
// callers must not add edges to it or write to its neighbor slices.
func (d *Device) CrosstalkGraph() *qgraph.Graph {
	return d.index().crosstalk()
}

// CouplingGraph returns the NN-only connectivity graph. It is shared
// through the topology index: callers must not add edges to it or write to
// its neighbor slices.
func (d *Device) CouplingGraph() *qgraph.Graph {
	return d.index().coupling
}

// HopDistances returns the coupling graph's all-pairs hop-distance matrix
// (qgraph.Graph.AllDistances; -1 for unreachable pairs). It is computed
// once per topology index, on first use, and shared: callers must not
// write to it.
func (d *Device) HopDistances() [][]int {
	return d.index().hops()
}

// Validate checks internal consistency.
func (d *Device) Validate() error {
	inRange := func(q int) bool { return q >= 0 && q < d.NQubits }
	for _, e := range append(append([]Edge(nil), d.Edges...), d.NNNEdges...) {
		if !inRange(e.A) || !inRange(e.B) || e.A >= e.B {
			return fmt.Errorf("device: bad edge %v", e)
		}
	}
	for _, e := range d.Edges {
		dir, ok := d.ECRDir[e]
		if !ok {
			return fmt.Errorf("device: edge %v has no ECR direction", e)
		}
		if NewEdge(dir.Src, dir.Dst) != e {
			return fmt.Errorf("device: ECR direction %v does not match edge %v", dir, e)
		}
	}
	// Calibration keys index per-qubit tables in the engines.
	for _, m := range []map[Edge]float64{d.ZZ, d.Err2Q} {
		for e := range m {
			if !inRange(e.A) || !inRange(e.B) {
				return fmt.Errorf("device: calibration edge %v outside %d qubits", e, d.NQubits)
			}
		}
	}
	for s := range d.Stark {
		if !inRange(s.Src) || !inRange(s.Dst) {
			return fmt.Errorf("device: Stark pair %v outside %d qubits", s, d.NQubits)
		}
	}
	for _, s := range []int{len(d.Delta), len(d.Quasistatic), len(d.T1), len(d.T2), len(d.Err1Q), len(d.ReadoutErr)} {
		if s != d.NQubits {
			return fmt.Errorf("device: calibration array length %d != %d qubits", s, d.NQubits)
		}
	}
	if d.Dur1Q <= 0 || d.DurECR <= 0 || d.DurMeas <= 0 {
		return fmt.Errorf("device: durations must be positive")
	}
	return nil
}

// Options configure synthetic backend generation.
type Options struct {
	Seed int64

	ZZMin, ZZMax       float64 // Hz, NN always-on ZZ
	NNNCollision       float64 // Hz, collision-enhanced NNN
	StarkMin, StarkMax float64 // Hz
	DeltaMax           float64 // Hz, charge-parity
	QuasistaticSigma   float64 // Hz, slow Z detuning std-dev
	T1Min, T1Max       float64 // ns
	T2Factor           float64 // T2 = T2Factor * T1 (clamped to 2*T1)
	Err1Q              float64
	Err2Q              float64
	ReadoutErr         float64
	Dur1Q              float64
	DurECR             float64
	DurMeas            float64
	DurFF              float64
	RotaryResidual     float64

	// ZZOverride pins specific edges' ZZ rates after synthesis (and before
	// validation) — the supported way to place a near-collision pair on a
	// synthetic backend. Overriding an edge the topology does not couple
	// panics: a typo must not silently synthesize a clean device.
	ZZOverride []EdgeRate
}

// EdgeRate names one edge's rate in Hz; used for calibration overrides and
// for the JSON snapshot encoding of the per-edge maps.
type EdgeRate struct {
	A  int     `json:"a"`
	B  int     `json:"b"`
	Hz float64 `json:"hz"`
}

// DefaultOptions returns parameter ranges representative of the paper's
// fixed-frequency CR backends.
func DefaultOptions() Options {
	return Options{
		Seed:             1,
		ZZMin:            40e3,
		ZZMax:            90e3,
		NNNCollision:     10e3,
		StarkMin:         10e3,
		StarkMax:         30e3,
		DeltaMax:         4e3,
		QuasistaticSigma: 9e3,
		T1Min:            150e3, // 150 us
		T1Max:            350e3,
		T2Factor:         0.8,
		Err1Q:            2.5e-4,
		Err2Q:            7e-3,
		ReadoutErr:       0.012,
		Dur1Q:            60,
		DurECR:           500,
		DurMeas:          4000,
		DurFF:            1150,
		RotaryResidual:   0.02,
	}
}

// Synthesize materializes a topology into a device with a seeded synthetic
// calibration. Parameters are drawn deterministically from opts.Seed,
// coupler by coupler in the topology's declaration order, then qubit by
// qubit — the draw order is part of the device identity.
func Synthesize(t Topology, opts Options) *Device {
	d := synthesize(t, opts)
	d.topo = newTopoIndex(d)
	return d
}

// synthesize is Synthesize without the topology index, for callers that
// share one.
func synthesize(t Topology, opts Options) *Device {
	if err := t.Validate(); err != nil {
		panic(err.Error())
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	uniform := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

	d := &Device{
		Topology: t,
		ECRDir:   map[Edge]Directed{},
		Calibration: Calibration{
			ZZ:             map[Edge]float64{},
			Stark:          map[Directed]float64{},
			Err2Q:          map[Edge]float64{},
			Dur1Q:          opts.Dur1Q,
			DurECR:         opts.DurECR,
			DurMeas:        opts.DurMeas,
			DurFF:          opts.DurFF,
			RotaryResidual: opts.RotaryResidual,
		},
	}
	for _, de := range t.Couplers {
		e := NewEdge(de.Src, de.Dst)
		d.Edges = append(d.Edges, e)
		d.ECRDir[e] = de
		d.ZZ[e] = uniform(opts.ZZMin, opts.ZZMax)
		d.Err2Q[e] = opts.Err2Q * uniform(0.7, 1.4)
		d.Stark[Directed{de.Src, de.Dst}] = uniform(opts.StarkMin, opts.StarkMax)
		d.Stark[Directed{de.Dst, de.Src}] = uniform(opts.StarkMin, opts.StarkMax)
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i].A != d.Edges[j].A {
			return d.Edges[i].A < d.Edges[j].A
		}
		return d.Edges[i].B < d.Edges[j].B
	})
	for _, e := range t.NNN {
		d.NNNEdges = append(d.NNNEdges, e)
		d.ZZ[e] = opts.NNNCollision
	}
	for q := 0; q < t.NQubits; q++ {
		d.Delta = append(d.Delta, rng.Float64()*opts.DeltaMax)
		d.Quasistatic = append(d.Quasistatic, opts.QuasistaticSigma*uniform(0.7, 1.3))
		t1 := uniform(opts.T1Min, opts.T1Max)
		d.T1 = append(d.T1, t1)
		t2 := opts.T2Factor * t1 * uniform(0.8, 1.2)
		if t2 > 2*t1 {
			t2 = 2 * t1
		}
		d.T2 = append(d.T2, t2)
		d.Err1Q = append(d.Err1Q, opts.Err1Q*uniform(0.6, 1.5))
		d.ReadoutErr = append(d.ReadoutErr, opts.ReadoutErr*uniform(0.6, 1.5))
	}
	if len(opts.ZZOverride) > 0 {
		for _, ov := range opts.ZZOverride {
			e := NewEdge(ov.A, ov.B)
			if _, ok := d.ZZ[e]; !ok {
				panic(fmt.Sprintf("device: ZZ override on uncoupled edge %v of %s", e, t.Name))
			}
			d.ZZ[e] = ov.Hz
		}
		if err := d.Validate(); err != nil {
			panic(err.Error())
		}
	}
	return d
}

// NewSynthetic builds a device from a topology (edges with ECR directions
// given by the order (control, target)) and options. It is Synthesize over
// an anonymous Topology.
func NewSynthetic(name string, nQubits int, directedEdges []Directed, nnn []Edge, opts Options) *Device {
	return Synthesize(Topology{Name: name, NQubits: nQubits, Couplers: directedEdges, NNN: nnn}, opts)
}

// Induced returns the sub-device on the given physical qubits under the
// new name, with qubit indices compacted to 0..len(qubits)-1 in ascending
// physical order. Couplers, NNN edges, and every calibration table are
// restricted to the region and reindexed; crosstalk edges leaving the
// region are dropped (callers that care about boundary coupling must
// account for it before inducing — the layout scorer does). The second
// return value maps new index -> original physical qubit. The sub-device
// gets its own topology index.
func (d *Device) Induced(name string, qubits []int) (*Device, []int, error) {
	phys := append([]int(nil), qubits...)
	sort.Ints(phys)
	pos := make(regionPos, d.NQubits)
	for i, q := range phys {
		if q < 0 || q >= d.NQubits {
			return nil, nil, fmt.Errorf("device: induced qubit %d out of range", q)
		}
		if pos[q] != 0 {
			return nil, nil, fmt.Errorf("device: induced qubit %d repeated", q)
		}
		pos[q] = i + 1
	}
	t := Topology{Name: name, NQubits: len(phys)}
	for _, c := range d.Couplers {
		si, sok := pos.at(c.Src)
		di, dok := pos.at(c.Dst)
		if sok && dok {
			t.Couplers = append(t.Couplers, Directed{si, di})
		}
	}
	for _, e := range d.Topology.NNN {
		ai, aok := pos.at(e.A)
		bi, bok := pos.at(e.B)
		if aok && bok {
			t.NNN = append(t.NNN, NewEdge(ai, bi))
		}
	}
	sub := &Device{Topology: t, ECRDir: map[Edge]Directed{}, Calibration: Calibration{
		ZZ:             map[Edge]float64{},
		Stark:          map[Directed]float64{},
		Err2Q:          map[Edge]float64{},
		Dur1Q:          d.Dur1Q,
		DurECR:         d.DurECR,
		DurMeas:        d.DurMeas,
		DurFF:          d.DurFF,
		RotaryResidual: d.RotaryResidual,
	}}
	for _, c := range t.Couplers {
		sub.Edges = append(sub.Edges, NewEdge(c.Src, c.Dst))
		sub.ECRDir[NewEdge(c.Src, c.Dst)] = c
	}
	sort.Slice(sub.Edges, func(i, j int) bool {
		if sub.Edges[i].A != sub.Edges[j].A {
			return sub.Edges[i].A < sub.Edges[j].A
		}
		return sub.Edges[i].B < sub.Edges[j].B
	})
	sub.NNNEdges = append(sub.NNNEdges, t.NNN...)
	// The calibration maps are walked whole, not looked up edge by edge,
	// so a key a snapshot put off the topology carries over too.
	for e, v := range d.ZZ {
		ai, aok := pos.at(e.A)
		bi, bok := pos.at(e.B)
		if aok && bok {
			sub.ZZ[NewEdge(ai, bi)] = v
		}
	}
	for dir, v := range d.Stark {
		si, sok := pos.at(dir.Src)
		di, dok := pos.at(dir.Dst)
		if sok && dok {
			sub.Stark[Directed{si, di}] = v
		}
	}
	for e, v := range d.Err2Q {
		ai, aok := pos.at(e.A)
		bi, bok := pos.at(e.B)
		if aok && bok {
			sub.Err2Q[NewEdge(ai, bi)] = v
		}
	}
	for _, q := range phys {
		sub.Delta = append(sub.Delta, d.Delta[q])
		sub.Quasistatic = append(sub.Quasistatic, d.Quasistatic[q])
		sub.T1 = append(sub.T1, d.T1[q])
		sub.T2 = append(sub.T2, d.T2[q])
		sub.Err1Q = append(sub.Err1Q, d.Err1Q[q])
		sub.ReadoutErr = append(sub.ReadoutErr, d.ReadoutErr[q])
	}
	if err := sub.Validate(); err != nil {
		return nil, nil, fmt.Errorf("device: induced %s: %w", name, err)
	}
	sub.topo = newTopoIndex(sub)
	return sub, phys, nil
}

// regionPos maps a parent qubit to 1 + its index in an induced region, 0
// for a qubit outside it.
type regionPos []int

// at returns q's region index and whether q is in the region. A qubit out
// of the parent's range is outside: the maps of an unvalidated device may
// hold such keys.
func (p regionPos) at(q int) (int, bool) {
	if q < 0 || q >= len(p) || p[q] == 0 {
		return 0, false
	}
	return p[q] - 1, true
}

// LineEdges returns directed edges of an n-qubit line with alternating ECR
// directions (even qubit controls its right neighbor).
func LineEdges(n int) []Directed {
	var out []Directed
	for i := 0; i+1 < n; i++ {
		if i%2 == 0 {
			out = append(out, Directed{i, i + 1})
		} else {
			out = append(out, Directed{i + 1, i})
		}
	}
	return out
}

// RingEdges returns directed edges of an n-qubit ring (n even for
// alternating directions).
func RingEdges(n int) []Directed {
	out := LineEdges(n)
	out = append(out, Directed{0, n - 1})
	return out
}

// NewLine builds a synthetic n-qubit linear device.
func NewLine(name string, n int, opts Options) *Device {
	return Synthesize(LineTopology(name, n), opts)
}

// NewRing builds a synthetic n-qubit ring device, as used for the 12-spin
// Heisenberg experiment (paper Fig. 7: a ring embedded in the heavy-hex
// lattice).
func NewRing(name string, n int, opts Options) *Device {
	return Synthesize(RingTopology(name, n), opts)
}

// NewLayerFidelityDevice builds the 10-qubit fragment used in the paper's
// layer-fidelity benchmark (Fig. 8): two rows of a heavy-hex lattice joined
// by a bridge qubit, hosting 3 ECR gates and 4 idle qubits, with two
// adjacent controls (the configuration DD cannot fix). Qubit indices are
// relabeled 0..9; Labels maps them to the paper's physical qubit numbers.
func NewLayerFidelityDevice(opts Options) (*Device, map[int]int) {
	// 0..9 correspond to paper qubits 52,37,38,39,40,56,57,58,59,60.
	labels := map[int]int{0: 52, 1: 37, 2: 38, 3: 39, 4: 40, 5: 56, 6: 57, 7: 58, 8: 59, 9: 60}
	edges := []Directed{
		{1, 0}, // 37 -> 52 (bridge), control on 37
		{0, 5}, // 52 -> 56
		{2, 3}, // 38 -> 39, control on 38 (adjacent to control 37 via edge 37-38)
		{1, 2}, // 37 - 38 coupling (directed arbitrarily)
		{3, 4}, // 39 - 40
		{5, 6}, // 56 - 57
		{7, 6}, // 58 -> 57
		{7, 8}, // 58 - 59
		{9, 8}, // 60 -> 59
	}
	d := NewSynthetic("layerfid10", 10, edges, nil, opts)
	return d, labels
}

// NewHeavyHexFragment builds a 6-qubit fragment with one NNN collision edge,
// matching the coloring example of paper Fig. 5 (Q0..Q5 with an NNN ZZ term
// between Q2 and Q4).
func NewHeavyHexFragment(opts Options) *Device {
	edges := []Directed{
		{0, 1}, {2, 1}, {2, 3}, {4, 3}, {4, 5},
	}
	nnn := []Edge{NewEdge(2, 4)}
	return NewSynthetic("hexfrag6", 6, edges, nnn, opts)
}
