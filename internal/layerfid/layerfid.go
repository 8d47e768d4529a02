// Package layerfid implements the layer-fidelity benchmark of paper Fig. 8
// (following McKay et al., "Benchmarking quantum processor performance at
// scale"): the device is partitioned into disjoint groups — gate pairs,
// adjacent idle pairs, and single idle qubits — and the process fidelity of
// each group under repeated application of a fixed twirled layer is
// estimated from the exponential decay of its Pauli expectation values.
// The layer fidelity is the product of the per-group fidelities, and the
// error-mitigation sampling overhead per layer follows as
// gamma = LF^(-2) (matching the paper's numbers: LF 0.648 -> gamma 2.38).
package layerfid

import (
	"context"
	"fmt"
	"math"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/fitting"
	"casq/internal/models"
	"casq/internal/obs"
	"casq/internal/pass"
	"casq/internal/pauli"
	"casq/internal/sim"
	"casq/internal/twirl"
)

// Partition is a disjoint group of 1 or 2 qubits.
type Partition struct {
	Qubits []int
	Label  string
}

// Partitions splits the device qubits for a benchmark layer: gate pairs
// first, then adjacent idle pairs (greedy matching on the coupling graph),
// then remaining idle singles (paper Sec. V C).
func Partitions(l *circuit.Layer, dev *device.Device) []Partition {
	var parts []Partition
	used := map[int]bool{}
	for in := range l.TwoQubitGates() {
		parts = append(parts, Partition{
			Qubits: []int{in.Qubits[0], in.Qubits[1]},
			Label:  fmt.Sprintf("gate(%d,%d)", in.Qubits[0], in.Qubits[1]),
		})
		used[in.Qubits[0]] = true
		used[in.Qubits[1]] = true
	}
	idle := l.IdleQubits(dev.NQubits)
	for _, q := range idle {
		if used[q] {
			continue
		}
		for _, nb := range dev.Neighbors(q) {
			if nb > q && !used[nb] && contains(idle, nb) {
				parts = append(parts, Partition{Qubits: []int{q, nb}, Label: fmt.Sprintf("idlepair(%d,%d)", q, nb)})
				used[q], used[nb] = true, true
				break
			}
		}
	}
	for _, q := range idle {
		if !used[q] {
			parts = append(parts, Partition{Qubits: []int{q}, Label: fmt.Sprintf("idle(%d)", q)})
			used[q] = true
		}
	}
	return parts
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// PartitionResult holds the fit for one group.
type PartitionResult struct {
	Partition Partition
	Fidelity  float64            // process fidelity per layer application
	Lambdas   map[string]float64 // Pauli label -> decay per layer
}

// Result is a complete layer-fidelity measurement.
type Result struct {
	Strategy   string
	LF         float64 // product of partition process fidelities
	Gamma      float64 // LF^-2, the PEC sampling-overhead base
	Partitions []PartitionResult
}

// Options configure the protocol.
type Options struct {
	Depths    []int
	Instances int // twirl instances per circuit
	Workers   int // concurrent twirl instances; 0 = GOMAXPROCS
	Shots     int
	Seed      int64
	// PauliRounds bounds how many basis Paulis are measured per partition
	// (pairs have 15; 0 = all).
	PauliRounds int
	// Engine selects the executor's simulation backend ("" = statevector,
	// "stab", "auto"). Full-device runs on 127-qubit lattices require the
	// stabilizer engine; the protocol's circuits are twirled Clifford, so
	// "auto" resolves to it. The stabilizer engine batches shots into
	// 64-wide bit-plane words, so each round's expectation values are
	// accumulated from packed parity words (one popcount per 64 shots) —
	// raising Shots to full-scale budgets costs milliseconds, not seconds.
	Engine string
	// Tracer records compile/execute spans for the protocol's circuit
	// runs; nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

// DefaultOptions uses depth points suited to layer fidelities in the
// 0.6-0.95 range.
func DefaultOptions() Options {
	return Options{Depths: []int{1, 2, 4, 6, 9, 12}, Instances: 4, Shots: 64, Seed: 29, PauliRounds: 0}
}

var onePaulis = []string{"X", "Y", "Z"}

func pairPaulis() []string {
	var out []string
	for _, a := range []string{"I", "X", "Y", "Z"} {
		for _, b := range []string{"I", "X", "Y", "Z"} {
			if a == "I" && b == "I" {
				continue
			}
			out = append(out, a+b)
		}
	}
	return out
}

// prepFor appends the 1q gate preparing the +1 eigenstate of the Pauli
// label on qubit q ("I" and "Z" -> |0>, "X" -> |+>, "Y" -> |+i>). Each
// preparation is a single SU(2) gate so one layer slot suffices
// (U3(pi/2, pi/2, pi) = S·H up to global phase).
func prepFor(l *circuit.Layer, label byte, q int) {
	switch label {
	case 'X':
		l.H(q)
	case 'Y':
		l.U(q, math.Pi/2, math.Pi/2, math.Pi)
	}
}

// Measure runs the layer-fidelity protocol for the given benchmark layer
// and compilation strategy. The strategy's twirl passes are retargeted to
// twirl.AllQubits: the protocol twirls idle partitions too.
func Measure(dev *device.Device, layer *circuit.Layer, strategy pass.Pipeline, opts Options) (Result, error) {
	if len(opts.Depths) == 0 {
		opts.Depths = DefaultOptions().Depths
	}
	parts := Partitions(layer, dev)
	// Per-partition list of Pauli labels to estimate.
	labels := make([][]string, len(parts))
	rounds := 0
	for i, p := range parts {
		if len(p.Qubits) == 1 {
			labels[i] = onePaulis
		} else {
			labels[i] = pairPaulis()
		}
		if opts.PauliRounds > 0 && len(labels[i]) > opts.PauliRounds {
			// Stride across the basis so the sample covers first-qubit,
			// second-qubit and correlated Paulis instead of a biased prefix.
			stride := len(labels[i]) / opts.PauliRounds
			var sampled []string
			for k := 0; k < opts.PauliRounds; k++ {
				sampled = append(sampled, labels[i][k*stride])
			}
			labels[i] = sampled
		}
		if len(labels[i]) > rounds {
			rounds = len(labels[i])
		}
	}

	// decays[partition][label] = (depths, values)
	type curve struct{ xs, ys []float64 }
	decays := make([]map[string]*curve, len(parts))
	for i := range decays {
		decays[i] = map[string]*curve{}
	}

	ex := exec.New(dev, strategy.WithTwirlScope(twirl.AllQubits))
	for round := 0; round < rounds; round++ {
		for _, d := range opts.Depths {
			// Build the circuit: simultaneous preparation of each
			// partition's round-robin Pauli, d layer repetitions.
			c := circuit.New(dev.NQubits, 0)
			prep := c.AddLayer(circuit.OneQubitLayer)
			chosen := make([]string, len(parts))
			for i, p := range parts {
				lab := labels[i][round%len(labels[i])]
				chosen[i] = lab
				for k, q := range p.Qubits {
					prepFor(prep, lab[k], q)
				}
			}
			for rep := 0; rep < d; rep++ {
				c.Layers = append(c.Layers, layer.Clone())
			}
			// Ideal propagation of each partition's Pauli through d layers.
			obs := make([]sim.ObsSpec, len(parts))
			signs := make([]float64, len(parts))
			for i, p := range parts {
				ps := pauli.NewString(dev.NQubits)
				for k, q := range p.Qubits {
					pp, err := pauli.Parse(chosen[i][k])
					if err != nil {
						return Result{}, err
					}
					ps.Ops[q] = pp
				}
				for rep := 0; rep < d; rep++ {
					var err error
					ps, err = twirl.PropagateThroughLayer(layer, ps)
					if err != nil {
						return Result{}, err
					}
				}
				spec := sim.ObsSpec{}
				for q, op := range ps.Ops {
					if op != pauli.I {
						spec[q] = op.String()[0]
					}
				}
				obs[i] = spec
				if ps.Phase%4 == 2 {
					signs[i] = -1
				} else {
					signs[i] = 1
				}
			}
			cfg := sim.DefaultConfig()
			cfg.Shots = opts.Shots
			cfg.Seed = opts.Seed + int64(round*7919+d*13)
			cfg.EnableReadoutErr = false // expectations are readout-corrected
			vals, err := ex.Expectations(context.Background(), c, obs,
				exec.RunOptions{Instances: opts.Instances, Workers: opts.Workers, Seed: opts.Seed + int64(round*1000+d), Cfg: cfg, Engine: opts.Engine, Tracer: opts.Tracer})
			if err != nil {
				return Result{}, err
			}
			for i := range parts {
				lab := chosen[i]
				cv := decays[i][lab]
				if cv == nil {
					cv = &curve{}
					decays[i][lab] = cv
				}
				cv.xs = append(cv.xs, float64(d))
				cv.ys = append(cv.ys, vals[i]*signs[i])
			}
		}
	}

	// Fit decays and assemble per-partition process fidelities.
	res := Result{Strategy: strategy.Name, LF: 1}
	for i, p := range parts {
		pr := PartitionResult{Partition: p, Lambdas: map[string]float64{}}
		dim2 := math.Pow(4, float64(len(p.Qubits)))
		sum := 1.0 // identity Pauli contributes lambda = 1
		nFit := 1
		keys := make([]string, 0, len(decays[i]))
		for k := range decays[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, lab := range keys {
			cv := decays[i][lab]
			_, lambda, err := fitting.ExpDecay(cv.xs, cv.ys)
			if err != nil || math.IsNaN(lambda) {
				// A fully decayed Pauli: count as 0 (conservative).
				lambda = 0
			}
			if lambda > 1 {
				lambda = 1
			}
			pr.Lambdas[lab] = lambda
			sum += lambda
			nFit++
		}
		// Extrapolate unsampled Paulis (when PauliRounds truncates) by the
		// mean of the fitted ones.
		if nFit < int(dim2) {
			mean := (sum - 1) / float64(nFit-1)
			sum += mean * float64(int(dim2)-nFit)
		}
		pr.Fidelity = sum / dim2
		res.LF *= pr.Fidelity
		res.Partitions = append(res.Partitions, pr)
	}
	if res.LF > 0 {
		res.Gamma = 1 / (res.LF * res.LF)
	} else {
		res.Gamma = math.Inf(1)
	}
	return res, nil
}

// BenchmarkLayerDevice returns the paper's Fig. 8 device and layer.
func BenchmarkLayerDevice(opts device.Options) (*device.Device, *circuit.Layer, map[int]int) {
	dev, labels := device.NewLayerFidelityDevice(opts)
	return dev, models.LayerFidelityLayer(), labels
}

// TiledLayer builds a full-device benchmark layer: a greedy maximal
// matching of the device's couplers, one ECR per matched edge in its
// calibrated direction. On the 127-qubit Eagle lattice this is the
// at-scale analogue of the paper's sparse Fig. 8 layer — every qubit is
// either gated or an idle spectator of a gate, which is exactly the
// regime the layer-fidelity protocol benchmarks.
func TiledLayer(dev *device.Device) *circuit.Layer {
	used := make([]bool, dev.NQubits)
	l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
	for _, e := range dev.Edges {
		if used[e.A] || used[e.B] {
			continue
		}
		used[e.A], used[e.B] = true, true
		dir := dev.ECRDir[e]
		l.ECR(dir.Src, dir.Dst)
	}
	return l
}
