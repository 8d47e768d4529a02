package experiments

import (
	"context"
	"fmt"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/fitting"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/sim"
)

// fig7Pipelines are the Heisenberg-ring comparison set of paper Fig. 7c:
// no suppression (twirl only), context-unaware DD, CA-DD, and CA-EC.
func fig7Pipelines() []pass.Pipeline {
	return []pass.Pipeline{pass.Twirled(), pass.WithDD(dd.Aligned), pass.CADD(), pass.CAEC()}
}

// Fig7cHeisenberg reproduces paper Fig. 7c: first-order Trotter dynamics of
// a 12-spin Heisenberg ring (3 colored layers of canonical gates per step,
// periodic boundary). The observable is <Z_2> with one initial excitation;
// without suppression its dynamics are washed out, CA-EC/CA-DD recover
// them, and context-unaware DD does not noticeably help.
func Fig7cHeisenberg(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "step d", YLabel: "<Z2>"}
	devOpts := device.DefaultOptions()
	devOpts.Seed = 43
	// Match the paper's regime where coherent crosstalk dominates the raw
	// signal loss (their 180-CNOT circuit shows no features at all without
	// suppression): stronger ZZ and slow dephasing, moderate gate error.
	devOpts.ZZMin, devOpts.ZZMax = 110e3, 190e3
	devOpts.QuasistaticSigma = 12e3
	devOpts.Err2Q = 4e-3
	// The ring size comes from the declared "qubits" axis; 12 is only a
	// guard for hand-built Specs that omit it.
	n := 12
	if q := sp.AxisValues("qubits", opts); len(q) > 0 {
		n = int(q[0])
	}
	dev := device.NewRing("heisenberg", n, devOpts)
	params := models.DefaultHeisenberg()
	baseObs := []sim.ObsSpec{{2: 'Z'}}
	depths := sp.Depths(opts)

	// On a named backend, embed the ring via the layout stage (heavy-hex
	// hosts a 12-ring natively — its smallest plaquette is 12 qubits).
	var emb *embedding
	if opts.Backend != "" {
		var err error
		dev, emb, err = embedOnBackend(opts.Backend, models.BuildHeisenbergRing(n, depths[len(depths)-1], params))
		if err != nil {
			return fig, fmt.Errorf("fig7c: %w", err)
		}
	}
	build := func(d int) (*circuit.Circuit, []sim.ObsSpec, error) {
		return emb.Circuit(models.BuildHeisenbergRing(n, d, params), baseObs)
	}

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

	for _, pl := range fig7Pipelines() {
		ex := exec.New(dev, pl)
		var xs, ys []float64
		for _, d := range depths {
			c, obs, err := build(d)
			if err != nil {
				return fig, err
			}
			cfg := sim.DefaultConfig()
			cfg.Shots = opts.Shots
			cfg.Seed = opts.Seed + int64(d)*23
			cfg.EnableReadoutErr = false
			vals, err := ex.Expectations(context.Background(), c, obs,
				exec.RunOptions{Instances: opts.Instances, Workers: opts.Workers, Seed: opts.Seed + int64(d), Cfg: cfg, Engine: opts.Engine, Tracer: opts.Tracer})
			if err != nil {
				return fig, fmt.Errorf("fig7c/%s: %w", pl.Name, err)
			}
			xs = append(xs, float64(d))
			ys = append(ys, vals[0])
		}
		fig.AddSeries(pl.Name, xs, ys)
	}
	fig.Notef("%d-spin ring, J=(%.1f,%.1f,%.1f), dt=%.2f; one initial excitation on q0", n, params.Jx, params.Jy, params.Jz, params.Dt)
	emb.Notef(&fig)
	return fig, nil
}

// Fig7dOverhead reproduces paper Fig. 7d: the global-depolarizing fit
// meas_d ~ A lambda^d ideal_d per strategy and the resulting
// error-mitigation sampling overhead (A lambda^d)^-2 at the final depth.
// The paper reports CA-EC/CA-DD winning by >3.5x over no suppression and
// >2.75x over plain DD. It derives from the fig7c figure (declared via
// Spec.DerivesFrom), so cached fig7c results are reused instead of
// re-running the Heisenberg simulation.
func Fig7dOverhead(sp Spec, base Figure, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "strategy#", YLabel: "overhead"}
	var ideal *Series
	for i := range base.Series {
		if base.Series[i].Label == "ideal" {
			ideal = &base.Series[i]
		}
	}
	if ideal == nil {
		return fig, fmt.Errorf("fig7d: missing ideal series")
	}
	D := int(ideal.X[len(ideal.X)-1])
	overheads := map[string]float64{}
	var xs, ys []float64
	idx := 0.0
	for _, s := range base.Series {
		if s.Label == "ideal" {
			continue
		}
		amp, lambda, rms, err := fitting.ScaledIdeal(s.X, ideal.Y, s.Y)
		if err != nil {
			return fig, fmt.Errorf("fig7d/%s: %w", s.Label, err)
		}
		ov := fitting.SamplingOverhead(amp, lambda, D)
		overheads[s.Label] = ov
		xs = append(xs, idx)
		ys = append(ys, ov)
		valid := ""
		if rms > 0.15 {
			// Without context-aware suppression the coherent errors leave
			// the signal outside the global-depolarizing model entirely —
			// rescaling cannot recover the ideal curve at any overhead,
			// which is the qualitative content of the paper's Fig. 7c/d.
			valid = "  [FIT INVALID: data inconsistent with A*lambda^d scaling]"
			delete(overheads, s.Label)
		}
		fig.Notef("%-12s A=%.3f lambda=%.4f rms=%.3f overhead@d=%d: %.2f%s", s.Label, amp, lambda, rms, D, ov, valid)
		idx++
	}
	fig.AddSeries("overhead", xs, ys)
	if o, ok := overheads["twirled"]; ok {
		if e, ok2 := overheads["ca-ec"]; ok2 && e > 0 {
			fig.Notef("CA-EC improvement over no suppression: %.2fx (paper: >3.5x)", o/e)
		}
		if c2, ok2 := overheads["ca-dd"]; ok2 && c2 > 0 {
			fig.Notef("CA-DD improvement over no suppression: %.2fx (paper: >3.5x)", o/c2)
		}
	}
	if o, ok := overheads["dd-aligned"]; ok {
		if e, ok2 := overheads["ca-ec"]; ok2 && e > 0 {
			fig.Notef("CA-EC improvement over plain DD: %.2fx (paper: >2.75x)", o/e)
		}
		if c2, ok2 := overheads["ca-dd"]; ok2 && c2 > 0 {
			fig.Notef("CA-DD improvement over plain DD: %.2fx (paper: >2.75x)", o/c2)
		}
	}
	return fig, nil
}
