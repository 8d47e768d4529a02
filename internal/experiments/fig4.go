package experiments

import (
	"context"
	"fmt"
	"math"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/exec"
	"casq/internal/gates"
	"casq/internal/pass"
	"casq/internal/sched"
	"casq/internal/sim"
)

// Fig4aStark reproduces paper Fig. 4a: the Ramsey spectrum of a spectator
// qubit while gates run on its neighbor shows a peak displaced from the
// always-on coupling frequency by the AC Stark shift (~20 kHz on the
// paper's device).
func Fig4aStark(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "freq (kHz)", YLabel: "periodogram"}
	devOpts := device.DefaultOptions()
	devOpts.Seed = 17
	devOpts.DeltaMax = 0
	devOpts.QuasistaticSigma = 0
	dev := device.NewLine("stark", 4, devOpts)

	// Probe 3 is the control spectator of repeated ECR(2,1) gates: during
	// each gate the echo removes ZZ(2,3), leaving the spectator precessing
	// at the always-on rate nu(2,3) plus the Stark shift from the drive.
	depths := sp.Depths(opts)
	var ts, xs, ys []float64
	for _, d := range depths {
		c := circuit.New(4, 0)
		c.AddLayer(circuit.OneQubitLayer).H(3)
		for i := 0; i < d; i++ {
			c.AddLayer(circuit.TwoQubitLayer).ECR(2, 1)
		}
		sched.Schedule(c, dev)
		cfg := sim.CoherentOnly(max(8, opts.Shots/8))
		cfg.Seed = opts.Seed
		r := sim.New(dev, cfg)
		vals, err := r.Expectations(c, []sim.ObsSpec{{3: 'X'}, {3: 'Y'}})
		if err != nil {
			return fig, err
		}
		ts = append(ts, float64(d)*dev.DurECR*1e-9) // seconds
		xs = append(xs, vals[0])
		ys = append(ys, vals[1])
	}
	// Phase-sensitive periodogram over the combined X/Y signal.
	alwaysOn := dev.ZZRate(2, 3)
	stark := dev.Stark[device.Directed{Src: 2, Dst: 3}]
	fMin, fMax := alwaysOn-60e3, alwaysOn+60e3
	const n = 241
	var fGrid, power []float64
	for k := 0; k < n; k++ {
		f := fMin + (fMax-fMin)*float64(k)/float64(n-1)
		var cr, ci float64
		for i := range ts {
			// Conjugate signal <X> - i <Y>: the spectator precesses with
			// negative chirality in this model, so the conjugate places the
			// peak at positive frequency, displaced below the always-on
			// line by the Stark shift.
			ph := 2 * math.Pi * f * ts[i]
			cr += xs[i]*math.Cos(ph) - ys[i]*math.Sin(ph)
			ci += -ys[i]*math.Cos(ph) - xs[i]*math.Sin(ph)
		}
		fGrid = append(fGrid, f/1e3)
		power = append(power, (cr*cr+ci*ci)/float64(len(ts)*len(ts)))
	}
	fig.AddSeries("spectrum", fGrid, power)
	peak := 0.0
	best := -1.0
	for i, f := range fGrid {
		if power[i] > best {
			best = power[i]
			peak = f * 1e3
		}
	}
	fig.Notef("always-on nu(2,3) = %.1f kHz (paper: dashed line)", alwaysOn/1e3)
	fig.Notef("observed peak = %.1f kHz; displacement = %.1f kHz; calibrated Stark = %.1f kHz (paper: ~20 kHz)",
		peak/1e3, (alwaysOn-peak)/1e3, stark/1e3)
	return fig, nil
}

// Fig4bParity reproduces paper Fig. 4b: charge-parity fluctuations add a
// +/-delta Z whose sign flips shot to shot; on top of a known rotation nu
// the averaged Ramsey signal beats as cos(2 pi nu t) cos(2 pi delta t).
func Fig4bParity(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "time (us)", YLabel: "<X>"}
	devOpts := device.DefaultOptions()
	devOpts.Seed = 19
	devOpts.QuasistaticSigma = 0
	dev := device.NewSynthetic("parity", 1, nil, nil, devOpts)
	delta := 60e3 // strong parity splitting to make beating visible
	dev.Delta = []float64{delta}
	nuKnown := 300e3 // deliberate known rotation

	tau := 500.0
	depths := sp.Depths(opts)
	var xsT, meas, theory []float64
	for _, d := range depths {
		c := circuit.New(1, 0)
		c.AddLayer(circuit.OneQubitLayer).H(0)
		for i := 0; i < d; i++ {
			l := c.AddLayer(circuit.TwoQubitLayer)
			l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{tau}})
			c.AddLayer(circuit.OneQubitLayer).RZ(0, 2*math.Pi*nuKnown*tau*1e-9)
		}
		sched.Schedule(c, dev)
		cfg := sim.DefaultConfig()
		cfg.Shots = opts.Shots * 2
		cfg.Seed = opts.Seed + int64(d)
		cfg.EnableT1T2 = false
		cfg.EnableGateErr = false
		cfg.EnableReadoutErr = false
		cfg.EnableQuasistatic = false
		r := sim.New(dev, cfg)
		vals, err := r.Expectations(c, []sim.ObsSpec{{0: 'X'}})
		if err != nil {
			return fig, err
		}
		t := float64(d) * tau * 1e-9
		xsT = append(xsT, t*1e6)
		meas = append(meas, vals[0])
		theory = append(theory, math.Cos(2*math.Pi*nuKnown*t)*math.Cos(2*math.Pi*delta*t))
	}
	fig.AddSeries("measured", xsT, meas)
	fig.AddSeries("cos(nu t)cos(delta t)", xsT, theory)
	fig.Notef("known rotation nu = %.0f kHz; parity delta = %.0f kHz; beating envelope follows cos(2 pi delta t)", nuKnown/1e3, delta/1e3)
	return fig, nil
}

// Fig4cNNN reproduces paper Fig. 4c: a frequency-collision NNN ZZ term
// between next-nearest neighbors i and k is invisible to index-staggered DD
// (i and k share a color) but suppressed by the Walsh hierarchy used in
// CA-DD, which colors on the crosstalk graph including the NNN edge.
func Fig4cNNN(sp Spec, opts Options) (Figure, error) {
	fig := Figure{ID: sp.ID, Title: sp.Title, XLabel: "depth d", YLabel: "Ramsey fidelity"}
	devOpts := device.DefaultOptions()
	devOpts.Seed = 23
	devOpts.NNNCollision = 25e3 // strongly collision-enhanced (paper: up to O(10 kHz))
	devOpts.DeltaMax = 0
	devOpts.QuasistaticSigma = 0
	edges := []device.Directed{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}}
	nnn := []device.Edge{device.NewEdge(0, 2)}
	dev := device.NewSynthetic("nnn3", 3, edges, nnn, devOpts)

	strategies := []struct {
		label string
		dd    dd.Strategy
	}{
		{"none", dd.None},
		{"aligned", dd.Aligned},
		{"staggered", dd.Staggered},
		{"walsh(ca)", dd.ContextAware},
	}
	depths := sp.Depths(opts)
	for _, st := range strategies {
		var xs, ys []float64
		for _, d := range depths {
			c := circuit.New(3, 0)
			c.AddLayer(circuit.OneQubitLayer).H(0).H(1).H(2)
			for i := 0; i < d; i++ {
				l := c.AddLayer(circuit.TwoQubitLayer)
				for q := 0; q < 3; q++ {
					l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{500}})
				}
			}
			passes := []pass.Pass{pass.Schedule()}
			if st.dd != dd.None {
				o := dd.DefaultOptions()
				o.Strategy = st.dd
				passes = append(passes, pass.DD(o))
			}
			ex := exec.New(dev, pass.New(st.label, passes...))
			cfg := sim.DefaultConfig()
			cfg.Shots = opts.Shots / 2
			cfg.Seed = opts.Seed + int64(d)
			cfg.EnableReadoutErr = false
			vals, err := ex.Expectations(context.Background(), c,
				[]sim.ObsSpec{{0: 'X'}, {1: 'X'}, {2: 'X'}},
				exec.RunOptions{Instances: 1, Workers: opts.Workers, Seed: opts.Seed, Cfg: cfg, Engine: opts.Engine, Tracer: opts.Tracer})
			if err != nil {
				return fig, fmt.Errorf("fig4c/%s: %w", st.label, err)
			}
			f := ((1+vals[0])/2 + (1+vals[1])/2 + (1+vals[2])/2) / 3
			xs = append(xs, float64(d))
			ys = append(ys, f)
		}
		fig.AddSeries(st.label, xs, ys)
	}
	fig.Notef("NNN ZZ(0,2) = %.1f kHz via type-VI-style collision; staggered-by-index colors 0 and 2 identically and fails", dev.ZZRate(0, 2)/1e3)
	return fig, nil
}
