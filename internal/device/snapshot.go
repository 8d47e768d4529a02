package device

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// DirectedRate names one directed pair's rate in Hz (the Stark table's
// snapshot encoding).
type DirectedRate struct {
	Src int     `json:"src"`
	Dst int     `json:"dst"`
	Hz  float64 `json:"hz"`
}

// Snapshot is the JSON-serializable form of a full device: topology plus
// calibration, with the per-edge maps flattened into canonically sorted
// entry lists. A snapshot round-trips bit-identically: for any device d,
// FromSnapshot(d.Snapshot()).Snapshot() fingerprints to the same content
// address, so result-store keys derived from a calibration survive
// export/import (pinned by TestSnapshotFingerprintRoundTrip).
type Snapshot struct {
	Topology Topology `json:"topology"`

	ZZ    []EdgeRate     `json:"zz"`
	Stark []DirectedRate `json:"stark"`
	Err2Q []EdgeRate     `json:"err_2q"`

	Delta       []float64 `json:"delta"`
	Quasistatic []float64 `json:"quasistatic"`
	T1          []float64 `json:"t1"`
	T2          []float64 `json:"t2"`
	Err1Q       []float64 `json:"err_1q"`
	ReadoutErr  []float64 `json:"readout_err"`

	Dur1Q   float64 `json:"dur_1q"`
	DurECR  float64 `json:"dur_ecr"`
	DurMeas float64 `json:"dur_meas"`
	DurFF   float64 `json:"dur_ff"`

	RotaryResidual float64 `json:"rotary_residual"`
}

func sortedEdgeRates(m map[Edge]float64) []EdgeRate {
	out := make([]EdgeRate, 0, len(m))
	for e, v := range m {
		out = append(out, EdgeRate{A: e.A, B: e.B, Hz: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Snapshot exports the device in canonical order (edge tables sorted), so
// equal devices always produce byte-identical encodings.
func (d *Device) Snapshot() Snapshot {
	s := Snapshot{
		Topology: Topology{
			Name:     d.Name,
			NQubits:  d.NQubits,
			Couplers: append([]Directed(nil), d.Couplers...),
			NNN:      append([]Edge(nil), d.Topology.NNN...),
		},
		ZZ:             sortedEdgeRates(d.ZZ),
		Err2Q:          sortedEdgeRates(d.Err2Q),
		Delta:          append([]float64(nil), d.Delta...),
		Quasistatic:    append([]float64(nil), d.Quasistatic...),
		T1:             append([]float64(nil), d.T1...),
		T2:             append([]float64(nil), d.T2...),
		Err1Q:          append([]float64(nil), d.Err1Q...),
		ReadoutErr:     append([]float64(nil), d.ReadoutErr...),
		Dur1Q:          d.Dur1Q,
		DurECR:         d.DurECR,
		DurMeas:        d.DurMeas,
		DurFF:          d.DurFF,
		RotaryResidual: d.RotaryResidual,
	}
	s.Stark = sortedDirectedRates(d.Stark)
	return s
}

func sortedDirectedRates(m map[Directed]float64) []DirectedRate {
	out := make([]DirectedRate, 0, len(m))
	for dir, v := range m {
		out = append(out, DirectedRate{Src: dir.Src, Dst: dir.Dst, Hz: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// FromSnapshot rebuilds a validated device, with its own topology index,
// from a snapshot. It rejects a ZZ or Err2Q edge (in either orientation)
// or a Stark pair listed twice.
func FromSnapshot(s Snapshot) (*Device, error) {
	if err := s.Topology.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		Topology: s.Topology,
		ECRDir:   map[Edge]Directed{},
		Calibration: Calibration{
			ZZ:             map[Edge]float64{},
			Stark:          map[Directed]float64{},
			Err2Q:          map[Edge]float64{},
			Dur1Q:          s.Dur1Q,
			DurECR:         s.DurECR,
			DurMeas:        s.DurMeas,
			DurFF:          s.DurFF,
			RotaryResidual: s.RotaryResidual,
		},
	}
	for _, c := range s.Topology.Couplers {
		e := NewEdge(c.Src, c.Dst)
		d.Edges = append(d.Edges, e)
		d.ECRDir[e] = c
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i].A != d.Edges[j].A {
			return d.Edges[i].A < d.Edges[j].A
		}
		return d.Edges[i].B < d.Edges[j].B
	})
	d.NNNEdges = append([]Edge(nil), s.Topology.NNN...)
	// A key listed twice would otherwise keep its last rate silently.
	for _, er := range s.ZZ {
		e := NewEdge(er.A, er.B)
		if _, dup := d.ZZ[e]; dup {
			return nil, fmt.Errorf("device: snapshot lists ZZ edge %v twice", e)
		}
		d.ZZ[e] = er.Hz
	}
	for _, dr := range s.Stark {
		k := Directed{dr.Src, dr.Dst}
		if _, dup := d.Stark[k]; dup {
			return nil, fmt.Errorf("device: snapshot lists Stark pair %v twice", k)
		}
		d.Stark[k] = dr.Hz
	}
	for _, er := range s.Err2Q {
		e := NewEdge(er.A, er.B)
		if _, dup := d.Err2Q[e]; dup {
			return nil, fmt.Errorf("device: snapshot lists Err2Q edge %v twice", e)
		}
		d.Err2Q[e] = er.Hz
	}
	d.Delta = append([]float64(nil), s.Delta...)
	d.Quasistatic = append([]float64(nil), s.Quasistatic...)
	d.T1 = append([]float64(nil), s.T1...)
	d.T2 = append([]float64(nil), s.T2...)
	d.Err1Q = append([]float64(nil), s.Err1Q...)
	d.ReadoutErr = append([]float64(nil), s.ReadoutErr...)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.topo = newTopoIndex(d)
	return d, nil
}

// Encode marshals the snapshot as indented JSON.
func (s Snapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Perturb returns a copy of the device whose calibration has drifted: every
// rate, coherence time, and error probability is scaled by an independent
// factor 1 + drift*u with u uniform in [-1, 1], drawn deterministically
// from the seed (tables in canonical sorted order, then per-qubit arrays).
// Durations are controller constants and do not drift. T2 stays clamped to
// 2*T1. The scenario-sweep layers use this to ask "does the chosen pipeline
// survive a stale calibration?" without re-synthesizing a new device.
// Drift keeps the topology, so the copy shares d's read-only topology
// fields (Topology, Edges, NNNEdges, ECRDir) and its topology index; only
// the calibration is copied.
func (d *Device) Perturb(seed int64, drift float64) *Device {
	rng := rand.New(rand.NewSource(seed))
	factor := func() float64 { return 1 + drift*(2*rng.Float64()-1) }
	out := &Device{
		Topology:    d.Topology,
		Edges:       d.Edges,
		NNNEdges:    d.NNNEdges,
		ECRDir:      d.ECRDir,
		Calibration: d.Calibration.Clone(),
		topo:        d.topo,
	}
	for _, er := range sortedEdgeRates(d.ZZ) {
		out.ZZ[Edge{er.A, er.B}] = er.Hz * factor()
	}
	for _, dr := range sortedDirectedRates(d.Stark) {
		out.Stark[Directed{dr.Src, dr.Dst}] = dr.Hz * factor()
	}
	for _, er := range sortedEdgeRates(d.Err2Q) {
		out.Err2Q[Edge{er.A, er.B}] = er.Hz * factor()
	}
	for q := 0; q < d.NQubits; q++ {
		out.Delta[q] *= factor()
		out.Quasistatic[q] *= factor()
		out.T1[q] *= factor()
		out.T2[q] *= factor()
		if out.T2[q] > 2*out.T1[q] {
			out.T2[q] = 2 * out.T1[q]
		}
		out.Err1Q[q] *= factor()
		out.ReadoutErr[q] *= factor()
	}
	return out
}
