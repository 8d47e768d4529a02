package experiments

import (
	"context"
	"fmt"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/sim"
)

// Fig6Ising reproduces paper Fig. 6: Floquet evolution of a 6-qubit Ising
// chain at the Clifford point. Boundary qubits start in |+> and <X0 X5>
// ideally oscillates between +1 and -1; idle boundary periods in the
// odd-even layers add Z errors that twirling alone cannot remove, while
// CA-EC and CA-DD restore the oscillation.
func Fig6Ising(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "step d", YLabel: "<X0X5>"}
	devOpts := device.DefaultOptions()
	devOpts.Seed = 37
	dev := device.NewLine("ising6", 6, devOpts)
	n := 6

	depths := sp.Depths(opts)
	baseObs := []sim.ObsSpec{{0: 'X', 5: 'X'}}

	// On a named backend, the layout stage picks the chain's subregion
	// from the probe (deepest) circuit; the default device passes through
	// untouched.
	var emb *embedding
	if opts.Backend != "" {
		var err error
		dev, emb, err = embedOnBackend(opts.Backend, models.BuildFloquetIsing(n, depths[len(depths)-1]))
		if err != nil {
			return fig, fmt.Errorf("fig6: %w", err)
		}
	}
	build := func(d int) (*circuit.Circuit, []sim.ObsSpec, error) {
		return emb.Circuit(models.BuildFloquetIsing(n, d), baseObs)
	}

	// Ideal reference.
	var ix, iy []float64
	for _, d := range depths {
		c, obs, err := build(d)
		if err != nil {
			return fig, err
		}
		vals, err := exec.IdealExpectations(dev, c, obs)
		if err != nil {
			return fig, err
		}
		ix = append(ix, float64(d))
		iy = append(iy, vals[0])
	}
	fig.AddSeries("ideal", ix, iy)

	pipelines := []pass.Pipeline{pass.Twirled(), pass.CAEC(), pass.CADD()}
	for _, pl := range pipelines {
		ex := exec.New(dev, pl)
		var xs, ys []float64
		for _, d := range depths {
			c, obs, err := build(d)
			if err != nil {
				return fig, err
			}
			cfg := sim.DefaultConfig()
			cfg.Shots = opts.Shots
			cfg.Seed = opts.Seed + int64(d)*17
			cfg.EnableReadoutErr = false
			vals, err := ex.Expectations(context.Background(), c, obs,
				exec.RunOptions{Instances: opts.Instances, Workers: opts.Workers, Seed: opts.Seed + int64(d), Cfg: cfg, Engine: opts.Engine, Tracer: opts.Tracer})
			if err != nil {
				return fig, fmt.Errorf("fig6/%s: %w", pl.Name, err)
			}
			xs = append(xs, float64(d))
			ys = append(ys, vals[0])
		}
		fig.AddSeries(pl.Name, xs, ys)
	}
	fig.Notef("6-qubit chain on %s; boundary qubits idle during odd-even ECR layers (paper Fig. 6b red markers)", dev.Name)
	emb.Notef(&fig)
	return fig, nil
}
