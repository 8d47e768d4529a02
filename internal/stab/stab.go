// Package stab is the scalable stabilizer/Pauli-frame engine: the
// simulation backend that runs full-device twirled circuits — 127 qubits
// and beyond — in O(shots * gates * n/64) instead of the statevector
// kernel's O(shots * gates * 2^n).
//
// It rests on the physics the paper builds on: after Pauli twirling, the
// coherent crosstalk channels the paper characterizes (always-on ZZ,
// spectator Z, Stark shifts, charge-parity and quasistatic detuning, NNN
// collisions) become stochastic Pauli channels. The engine therefore
// splits a compiled circuit into
//
//   - an ideal Clifford skeleton, simulated exactly: a bit-packed
//     Aaronson-Gottesman tableau, stored qubit-major so a gate rewrites
//     only its qubits' row-word planes, produces one reference
//     trajectory, and a per-shot Pauli frame — conjugated through the same
//     pauli.CliffordTable tables the twirl pass uses — tracks each
//     trajectory's deviation from it; and
//   - a noise model derived from the device calibration via the
//     Pauli-twirling approximation (PTA): the compiler walks the same
//     lowered layers as the statevector kernel (sim.Crosstalk), with the
//     same crosstalk integral between events, tracking every
//     toggling-frame coherent-error angle (with sign flips at DD/echo/
//     twirl pulses) and converting the surviving angles into Z and
//     correlated Z(x)Z channel probabilities at the kernel's flush
//     points, alongside twirled amplitude-damping/dephasing (T1/T2),
//     depolarizing gate error, and readout assignment error.
//
// Engine implements sim.Engine; the executor (internal/exec) dispatches
// between the statevector and stabilizer engines per job, automatically
// when a compiled circuit is twirl-representable (Supports) and twirled
// (HasTwirl). Agreement with the statevector kernel on small devices is
// pinned by differential tests in this package.
package stab

import (
	"fmt"
	"math/bits"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/obs"
	"casq/internal/sim"
)

// Engine executes twirl-representable circuits on a device under a noise
// config by Pauli-frame sampling. It implements sim.Engine with the same
// Config semantics (Shots, Seed, Workers, channel toggles) as the
// statevector Runner.
//
// Shots advance 64 at a time through bit-plane frames (block.go); the
// shots % 64 remainder runs one per-shot frame each (frame.go).
type Engine struct {
	Dev *device.Device
	Cfg sim.Config
}

// New returns a stabilizer engine.
func New(dev *device.Device, cfg sim.Config) *Engine {
	return &Engine{Dev: dev, Cfg: cfg}
}

// Engine implements sim.Engine.
var _ sim.Engine = (*Engine)(nil)

// span opens an engine-level span on the configured tracer (no-op Span
// when tracing is disabled). A helper rather than inline calls because
// Expectations takes a parameter named obs, shadowing the package name.
func (e *Engine) span(name string) obs.Span {
	if !e.Cfg.Tracer.Enabled() {
		return obs.Span{}
	}
	return e.Cfg.Tracer.Start(name).WithLane(e.Cfg.Lane)
}

// Counts runs the circuit and returns measured bitstring counts
// (classical bit i at string position i), shot-for-shot deterministic in
// Cfg.Seed and independent of the worker count.
func (e *Engine) Counts(c *circuit.Circuit) (sim.Result, error) {
	pb, err := e.CountsPacked(c)
	if err != nil {
		return sim.Result{}, err
	}
	return pb.Counts(), nil
}

// Engine implements sim.PackedSampler.
var _ sim.PackedSampler = (*Engine)(nil)

// CountsPacked runs the circuit through the bit-plane path and returns the
// measured classical bits as shot-packed planes: full 64-shot blocks copy
// their outcome words straight into the planes (one word move per
// classical bit), the scalar remainder tail sets its bits individually.
// Results are deterministic in Cfg.Seed and bit-identical for any worker
// count.
func (e *Engine) CountsPacked(c *circuit.Circuit) (sim.PackedBits, error) {
	sp := e.span("stab.counts")
	defer sp.End()
	p, err := e.compile(c)
	if err != nil {
		return sim.PackedBits{}, err
	}
	defer p.release()
	pb := sim.NewPackedBits(p.ncb, e.numShots())
	e.forEachShotBlock(p,
		func(b, base int, bf *blockFrame) {
			for cb := 0; cb < p.ncb; cb++ {
				pb.Planes[cb][b] = bf.cbits[cb]
			}
		},
		func(i int, f *frame) {
			for cb, v := range f.cbits {
				pb.Set(cb, i, v)
			}
		})
	return pb, nil
}

// obsPlan is one compiled observable: packed X/Z masks (qubit axis, for
// the per-shot tail frames), the support qubit lists (for the bit-plane path's
// word-parallel parity), and the reference state's exact expectation
// (+1, -1, or 0).
type obsPlan struct {
	px, pz []uint64
	xQ, zQ []int32
	ref    float64
}

// planObs compiles each observable against the program's reference
// tableau. Their reference expectations come from one row-major copy of
// its stabilizers.
func (p *program) planObs(obs []sim.ObsSpec) ([]obsPlan, error) {
	plans := make([]obsPlan, len(obs))
	rows := newStabRows(p.tab)
	var qs []int
	for j, o := range obs {
		pl := obsPlan{px: make([]uint64, p.words), pz: make([]uint64, p.words)}
		qs = qs[:0]
		for q := range o {
			qs = append(qs, q)
		}
		sort.Ints(qs)
		for _, q := range qs {
			if q < 0 || q >= p.nq {
				return nil, fmt.Errorf("stab: observable qubit %d out of range for %d qubits", q, p.nq)
			}
			w, b := q/64, uint(q%64)
			switch o[q] {
			case 'X':
				pl.px[w] |= 1 << b
				pl.xQ = append(pl.xQ, int32(q))
			case 'Y':
				pl.px[w] |= 1 << b
				pl.pz[w] |= 1 << b
				pl.xQ = append(pl.xQ, int32(q))
				pl.zQ = append(pl.zQ, int32(q))
			case 'Z':
				pl.pz[w] |= 1 << b
				pl.zQ = append(pl.zQ, int32(q))
			case 'I':
			default:
				return nil, fmt.Errorf("stab: invalid observable label %q", o[q])
			}
		}
		pl.ref = rows.expect(pl.px, pl.pz, false)
		plans[j] = pl
	}
	return plans, nil
}

// Expectations runs the circuit and returns the mean over frame
// trajectories of each Pauli observable: the reference tableau provides
// the exact noiseless expectation, each shot contributes its frame's sign
// relative to it. On the bit-plane path each full 64-shot block
// contributes one popcount-reduced partial sum per observable
// (ref * (64 - 2*popcount(parity word))); the reduction runs in unit-index
// order so the result is bit-identical for any worker count.
func (e *Engine) Expectations(c *circuit.Circuit, obs []sim.ObsSpec) ([]float64, error) {
	sp := e.span("stab.expectations")
	defer sp.End()
	p, err := e.compile(c)
	if err != nil {
		return nil, err
	}
	defer p.release()
	plans, err := p.planObs(obs)
	if err != nil {
		return nil, err
	}
	shots := e.numShots()
	nobs := len(obs)
	// One row per full 64-shot block, then one per remainder tail shot.
	full := shots / sim.ShotBlockSize
	rem := shots - full*sim.ShotBlockSize
	sums := make([]float64, (full+rem)*nobs)
	e.forEachShotBlock(p,
		func(b, base int, bf *blockFrame) {
			row := sums[b*nobs : (b+1)*nobs]
			for j := range plans {
				if plans[j].ref == 0 {
					continue
				}
				par := bf.anticommuteWord(&plans[j])
				row[j] = plans[j].ref * float64(sim.ShotBlockSize-2*bits.OnesCount64(par))
			}
		},
		func(i int, f *frame) {
			r := full + (i - full*sim.ShotBlockSize)
			row := sums[r*nobs : (r+1)*nobs]
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

// reduceRows sums per-unit partial rows in unit order and normalizes by
// the shot count, so the result is independent of the worker count.
func reduceRows(sums []float64, shots, nobs int) []float64 {
	out := make([]float64, nobs)
	rows := len(sums) / max(nobs, 1)
	for i := 0; i < rows; i++ {
		for j := 0; j < nobs; j++ {
			out[j] += sums[i*nobs+j]
		}
	}
	for j := range out {
		out[j] /= float64(shots)
	}
	return out
}

// Info compiles the circuit and returns the program summary (op, channel,
// and measurement counts) — the channel-derivation surface the benchmarks
// track.
func (e *Engine) Info(c *circuit.Circuit) (CompileInfo, error) {
	p, err := e.compile(c)
	if err != nil {
		return CompileInfo{}, err
	}
	defer p.release()
	return p.info(), nil
}
