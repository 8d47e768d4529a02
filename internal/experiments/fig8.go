package experiments

import (
	"fmt"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/layerfid"
	"casq/internal/models"
	"casq/internal/pass"
)

// Fig8LayerFidelity reproduces paper Fig. 8: the layer fidelity of a sparse
// 10-qubit layer (3 ECR gates, 4 idle qubits, one adjacent-control pair and
// one adjacent idle pair) under bare twirling, context-unaware DD, CA-DD,
// and CA-EC, plus the PEC sampling-overhead base gamma = LF^-2.
//
// Paper values: LF 0.648 / 0.743 / 0.822 / 0.881 and gamma 2.38 / 1.81 /
// 1.48 / 1.29 for bare / DD / CA-DD / CA-EC; CA-EC wins because the
// Ctrl-Ctrl ZZ between Q37 and Q38 is invisible to DD.
// When Options.Backend names a registry backend, the harness instead
// benchmarks that full device: models.LayerFidelityLayer on layerfid10,
// and a maximal ECR tiling (layerfid.TiledLayer) on the heavy-hex
// lattices. Full lattices beyond the statevector limit run on the
// stabilizer engine — Options.Engine defaults to "auto" there, and
// `casq -spec fig8 -backend eagle127 -engine stab` is the headline
// full-127-qubit run. That engine advances 64 shots per word op and
// accumulates the protocol's expectation values from packed parity words,
// so a 10^5-shot budget (`-shots 100000`) costs tens of milliseconds per
// circuit.
func Fig8LayerFidelity(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "strategy#", YLabel: "LF"}
	var (
		dev    *device.Device
		layer  *circuit.Layer
		labels map[int]int
		engine = opts.Engine
	)
	if opts.Backend != "" {
		bdev, err := device.NewBackend(opts.Backend)
		if err != nil {
			return fig, err
		}
		dev = bdev
		if opts.Backend == "layerfid10" {
			layer = models.LayerFidelityLayer()
		} else {
			layer = layerfid.TiledLayer(dev)
		}
		if engine == "" {
			// Full-device runs default to auto dispatch: the protocol's
			// circuits are twirled Clifford, so this resolves to the
			// stabilizer engine — the only one that fits 127 qubits.
			engine = exec.EngineAuto
		}
		fig.Notef("backend %s: full-device layer, %d ECR gates on %d qubits, engine %s",
			opts.Backend, len(layer.TwoQubitGates()), dev.NQubits, engine)
	} else {
		devOpts := device.DefaultOptions()
		devOpts.Seed = 47
		// The paper's device sits in a noisier regime than our default ranges
		// (bare LF 0.648 over 10 qubits): raise the coherent crosstalk, slow
		// incoherent noise and gate error accordingly.
		devOpts.ZZMin, devOpts.ZZMax = 90e3, 160e3
		devOpts.Err2Q = 1.1e-2
		devOpts.QuasistaticSigma = 3e3
		// The paper singles out the Ctrl-Ctrl pair Q37-Q38 as carrying an
		// unusually strong ZZ (near-collision) that DD cannot suppress — the
		// reason CA-EC outperforms CA-DD on this layer. Pin that on the
		// corresponding edge (1,2) as a build-time calibration override, so the
		// device is synthesized and validated with the collision in place.
		devOpts.ZZOverride = []device.EdgeRate{{A: 1, B: 2, Hz: 230e3}}
		dev, layer, labels = layerfid.BenchmarkLayerDevice(devOpts)
	}

	lfOpts := layerfid.DefaultOptions()
	lfOpts.Seed = opts.Seed
	lfOpts.Instances = opts.Instances
	lfOpts.Workers = opts.Workers
	lfOpts.Engine = engine
	lfOpts.Tracer = opts.Tracer
	lfOpts.Shots = max(8, opts.Shots/4)
	lfOpts.Depths = nil
	for _, v := range sp.AxisValues("lf_depth", opts) {
		lfOpts.Depths = append(lfOpts.Depths, int(v))
	}
	if opts.Fast {
		lfOpts.PauliRounds = 3
	}

	strategies := []pass.Pipeline{pass.Twirled(), pass.WithDD(dd.Aligned), pass.CADD(), pass.CAEC()}
	paper := map[string][2]float64{
		"twirled":    {0.648, 2.38},
		"dd-aligned": {0.743, 1.81},
		"ca-dd":      {0.822, 1.48},
		"ca-ec":      {0.881, 1.29},
	}
	var xs, lfs []float64
	var results []layerfid.Result
	for i, pl := range strategies {
		res, err := layerfid.Measure(dev, layer, pl, lfOpts)
		if err != nil {
			return fig, fmt.Errorf("fig8/%s: %w", pl.Name, err)
		}
		results = append(results, res)
		xs = append(xs, float64(i))
		lfs = append(lfs, res.LF)
		if opts.Backend == "" {
			p := paper[pl.Name]
			fig.Notef("%-12s LF=%.3f gamma=%.2f   (paper: LF=%.3f gamma=%.2f)", pl.Name, res.LF, res.Gamma, p[0], p[1])
		} else {
			fig.Notef("%-12s LF=%.3f gamma=%.2f", pl.Name, res.LF, res.Gamma)
		}
	}
	fig.AddSeries("LF", xs, lfs)
	if dev.NQubits <= 12 {
		for _, res := range results {
			for _, pr := range res.Partitions {
				fig.Notef("  %-10s %-16s F=%.4f", res.Strategy, pr.Partition.Label, pr.Fidelity)
			}
		}
	} else {
		// Full-device runs have dozens of partitions: report only each
		// strategy's weakest link instead of the whole table.
		for _, res := range results {
			worst := layerfid.PartitionResult{Fidelity: 2}
			for _, pr := range res.Partitions {
				if pr.Fidelity < worst.Fidelity {
					worst = pr
				}
			}
			fig.Notef("  %-10s %d partitions, worst %s F=%.4f",
				res.Strategy, len(res.Partitions), worst.Partition.Label, worst.Fidelity)
		}
	}
	if len(results) == 4 {
		bare, ddRes, cadd, caec := results[0], results[1], results[2], results[3]
		if opts.Backend == "" {
			// The paper baselines describe the 10-qubit sparse layer; a
			// full-device run is a different benchmark, so cite them only
			// on the default device.
			fig.Notef("LF gains: CA-DD/bare=%.2fx (paper 1.26x), CA-EC/bare=%.2fx (paper 1.36x), DD/bare=%.2fx (paper 1.14x)",
				cadd.LF/bare.LF, caec.LF/bare.LF, ddRes.LF/bare.LF)
			if caec.Gamma > 0 && cadd.Gamma > 0 {
				d := 10.0
				ovDD := powf(ddRes.Gamma, d)
				fig.Notef("10-layer overhead reduction vs DD: CA-DD %.1fx (paper ~7x), CA-EC %.1fx (paper ~30x)",
					ovDD/powf(cadd.Gamma, d), ovDD/powf(caec.Gamma, d))
			}
		} else {
			fig.Notef("LF gains: CA-DD/bare=%.2fx, CA-EC/bare=%.2fx, DD/bare=%.2fx",
				cadd.LF/bare.LF, caec.LF/bare.LF, ddRes.LF/bare.LF)
		}
	}
	if labels != nil {
		fig.Notef("physical qubit labels: %v", labels)
	}
	return fig, nil
}

func powf(b, e float64) float64 {
	r := 1.0
	for i := 0; i < int(e); i++ {
		r *= b
	}
	return r
}
