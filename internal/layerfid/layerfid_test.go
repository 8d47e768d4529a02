package layerfid

import (
	"math"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/pass"
)

func TestPartitionsCoverAllQubits(t *testing.T) {
	dev, layer, _ := BenchmarkLayerDevice(device.DefaultOptions())
	parts := Partitions(layer, dev)
	seen := map[int]int{}
	for _, p := range parts {
		for _, q := range p.Qubits {
			seen[q]++
		}
	}
	for q := 0; q < dev.NQubits; q++ {
		if seen[q] != 1 {
			t.Errorf("qubit %d appears in %d partitions", q, seen[q])
		}
	}
	// The paper's layout: 3 gate pairs, 1 idle pair, 2 singles.
	var gatePairs, idlePairs, singles int
	for _, p := range parts {
		switch {
		case len(p.Qubits) == 2 && p.Label[0] == 'g':
			gatePairs++
		case len(p.Qubits) == 2:
			idlePairs++
		default:
			singles++
		}
	}
	if gatePairs != 3 || idlePairs != 1 || singles != 2 {
		t.Errorf("partition structure: %d gates, %d idle pairs, %d singles", gatePairs, idlePairs, singles)
	}
}

func TestMeasureOnQuietDevice(t *testing.T) {
	// With all noise disabled, the layer fidelity must be ~1 for every
	// strategy.
	o := device.DefaultOptions()
	o.DeltaMax, o.QuasistaticSigma = 0, 0
	o.Err1Q, o.Err2Q, o.ReadoutErr = 0, 0, 0
	o.T1Min, o.T1Max, o.T2Factor = 1e15, 1e15, 2
	o.RotaryResidual = 0
	o.ZZMin, o.ZZMax = 0, 1e-9 // no coherent crosstalk either
	o.StarkMin, o.StarkMax = 0, 1e-9
	dev, layer, _ := BenchmarkLayerDevice(o)

	opts := DefaultOptions()
	opts.Depths = []int{1, 2, 4}
	opts.Instances = 2
	opts.Shots = 4
	opts.PauliRounds = 4
	res, err := Measure(dev, layer, pass.Twirled(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.LF < 0.999 {
		t.Errorf("noiseless layer fidelity = %v, want ~1 (%+v)", res.LF, res.Partitions)
	}
	if math.Abs(res.Gamma-1/(res.LF*res.LF)) > 1e-9 {
		t.Error("gamma != LF^-2")
	}
}

func TestOrderingMatchesPaperOnNoisyDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Reduced version of the Fig. 8 setting: CA-EC and CA-DD must both beat
	// bare twirling.
	o := device.DefaultOptions()
	o.Seed = 47
	o.ZZMin, o.ZZMax = 90e3, 160e3
	o.QuasistaticSigma = 3e3
	o.ZZOverride = []device.EdgeRate{{A: 1, B: 2, Hz: 230e3}}
	dev, layer, _ := BenchmarkLayerDevice(o)

	opts := DefaultOptions()
	opts.Depths = []int{1, 2, 4, 7}
	opts.Instances = 3
	opts.Shots = 16
	opts.PauliRounds = 5

	lf := map[string]float64{}
	for _, pl := range []pass.Pipeline{pass.Twirled(), pass.CADD(), pass.CAEC()} {
		res, err := Measure(dev, layer, pl, opts)
		if err != nil {
			t.Fatal(err)
		}
		lf[pl.Name] = res.LF
	}
	if lf["ca-dd"] <= lf["twirled"] {
		t.Errorf("CA-DD (%v) should beat bare (%v)", lf["ca-dd"], lf["twirled"])
	}
	if lf["ca-ec"] <= lf["twirled"] {
		t.Errorf("CA-EC (%v) should beat bare (%v)", lf["ca-ec"], lf["twirled"])
	}
}

func TestPrepFor(t *testing.T) {
	l := &circuit.Layer{Kind: circuit.OneQubitLayer}
	prepFor(l, 'X', 0)
	prepFor(l, 'Y', 1)
	prepFor(l, 'Z', 2) // no gate
	prepFor(l, 'I', 3) // no gate
	if len(l.Instrs) != 2 {
		t.Errorf("prep gates: %d", len(l.Instrs))
	}
}

func TestPairPaulis(t *testing.T) {
	ps := pairPaulis()
	if len(ps) != 15 {
		t.Errorf("pair Paulis: %d, want 15", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p] || p == "II" {
			t.Errorf("bad Pauli list entry %q", p)
		}
		seen[p] = true
	}
}
