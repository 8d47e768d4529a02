package stab

import (
	"casq/internal/circuit"
	"casq/internal/sim"
)

// The all-scalar reference path: every shot runs its own Pauli frame with
// sim.ShotSeed seeding, exactly like the production remainder tail. It
// exists only to pin the bit-plane path against (blockdiff_test.go) and
// to measure the batching speedup (BenchmarkStabBatch127Q).

// forEachShot runs one reset+run trajectory per shot index through the
// shared engine shot loop (sim.ForEachShot).
func (e *Engine) forEachShot(p *program, fn func(i int, f *frame)) {
	sim.ForEachShot(e.numShots(), e.Cfg.Workers, func() *frame { return newFrame(p) },
		func(i int, f *frame) {
			f.reset(sim.ShotSeed(e.Cfg.Seed, i))
			f.run(p)
			fn(i, f)
		})
}

// ScalarCounts is Engine.Counts on the all-scalar reference path.
func ScalarCounts(e *Engine, c *circuit.Circuit) (sim.Result, error) {
	p, err := e.compile(c)
	if err != nil {
		return sim.Result{}, err
	}
	shots := e.numShots()
	keys := make([]string, shots)
	e.forEachShot(p, func(i int, f *frame) {
		keys[i] = sim.BitsKey(f.cbits)
	})
	res := sim.Result{Counts: map[string]int{}, Shots: shots}
	for _, k := range keys {
		res.Counts[k]++
	}
	return res, nil
}

// ScalarExpectations is Engine.Expectations on the all-scalar reference
// path.
func ScalarExpectations(e *Engine, c *circuit.Circuit, obs []sim.ObsSpec) ([]float64, error) {
	p, err := e.compile(c)
	if err != nil {
		return nil, err
	}
	plans := make([]obsPlan, len(obs))
	for j, o := range obs {
		if plans[j], err = e.planObs(p, o); err != nil {
			return nil, err
		}
	}
	shots, nobs := e.numShots(), len(obs)
	sums := make([]float64, shots*nobs)
	e.forEachShot(p, func(i int, f *frame) {
		row := sums[i*nobs : (i+1)*nobs]
		for j := range plans {
			v := plans[j].ref
			if v != 0 && f.anticommutes(plans[j].px, plans[j].pz) {
				v = -v
			}
			row[j] = v
		}
	})
	return reduceRows(sums, shots, nobs), nil
}
