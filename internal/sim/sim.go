// Package sim is the noisy device-level simulator that substitutes for the
// paper's IBM hardware. It executes scheduled layered circuits on a
// statevector while tracking every coherent crosstalk channel the paper
// characterizes — always-on ZZ (Eq. 1), spectator Z, AC Stark shifts,
// charge-parity +/-delta terms (Eq. 6), NNN collision ZZ — plus stochastic
// channels (T1, T2, quasi-static low-frequency dephasing, depolarizing gate
// errors, readout errors).
//
// Coherent Z/ZZ phases are diagonal, so they are accumulated analytically in
// a phase accumulator and flushed into the statevector lazily, only before
// non-diagonal operations on the affected qubits. X-type pulses (DD pulses,
// twirl Paulis, the internal echo of an ECR) flip the accumulator signs,
// which reproduces the toggling-frame physics exactly for instantaneous
// pulses. The ECR gate executes as its physical sequence
// ZX(pi/4) -> X(ctrl) -> ZX(-pi/4) so that echo alignment effects (paper
// Fig. 3, cases II-IV) emerge from the dynamics rather than being assumed.
//
// Compilation lowers each scheduled layer once (lower.go): a per-circuit
// Crosstalk table, then per layer the context masks (active, driven,
// rotary, gate pair) and the time-ordered events. The stabilizer engine's
// compiler (internal/stab) walks the same lowered layers and integrates
// the same crosstalk between events, so the two engines agree on when a
// phase accrues, flips or is flushed.
package sim

import (
	"fmt"
	"math/bits"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/linalg"
	"casq/internal/obs"
)

// Engine is the simulation-backend contract shared by the statevector
// Runner and the stabilizer/Pauli-frame engine (internal/stab). Both take
// a compiled, scheduled circuit and produce sampled bitstring counts or
// trajectory-averaged Pauli expectation values; the executor dispatches
// between them per job (internal/exec).
type Engine interface {
	Counts(c *circuit.Circuit) (Result, error)
	Expectations(c *circuit.Circuit, obs []ObsSpec) ([]float64, error)
}

// MaxQubits is the largest circuit width the statevector engine accepts:
// a 2^n-amplitude state costs 16*2^n bytes per shot worker, so beyond
// this the executor must route the job to the stabilizer engine instead
// of letting the allocation take the process down.
const MaxQubits = 26

// Config toggles the noise channels and sets sampling parameters.
type Config struct {
	Shots   int
	Seed    int64
	Workers int // 0 = GOMAXPROCS

	EnableZZ          bool // always-on ZZ + spectator Z (Eq. 1)
	EnableStark       bool // AC Stark shift on neighbors of driven qubits
	EnableParity      bool // charge-parity +/-delta Z (Eq. 6)
	EnableQuasistatic bool // per-shot Gaussian low-frequency Z detuning
	EnableT1T2        bool // Markovian amplitude damping and dephasing
	EnableGateErr     bool // depolarizing error per physical gate
	EnableReadoutErr  bool // assignment error on recorded bits

	// Tracer records engine-level spans (whole-run and per-shot-block
	// timings); nil disables tracing at zero cost. Lane is the tracer
	// lane spans render on — the executor assigns one per instance.
	// Neither affects simulation results.
	Tracer *obs.Tracer
	Lane   int
}

// DefaultConfig enables every channel with a moderate shot count.
func DefaultConfig() Config {
	return Config{
		Shots:             256,
		Seed:              7,
		EnableZZ:          true,
		EnableStark:       true,
		EnableParity:      true,
		EnableQuasistatic: true,
		EnableT1T2:        true,
		EnableGateErr:     true,
		EnableReadoutErr:  true,
	}
}

// CoherentOnly returns a config with only the deterministic coherent
// channels enabled (useful for validating suppression passes exactly).
func CoherentOnly(shots int) Config {
	return Config{
		Shots:       shots,
		Seed:        7,
		EnableZZ:    true,
		EnableStark: true,
	}
}

// Ideal returns a noiseless config (single shot: the evolution is
// deterministic).
func Ideal() Config { return Config{Shots: 1, Seed: 1} }

// layerExec is one lowered layer plus the gate matrix each of its events
// applies (nil for events that only touch the phase accumulator or
// sample noise).
type layerExec struct {
	Lowered
	mats []linalg.Matrix
}

// Runner executes circuits on a device under a noise config. Every call
// compiles from the device and the circuit as they are then and keeps
// nothing, so writes to either between calls take effect.
type Runner struct {
	Dev *device.Device
	Cfg Config
}

// New returns a Runner.
func New(dev *device.Device, cfg Config) *Runner {
	return &Runner{Dev: dev, Cfg: cfg}
}

type compiled struct {
	nq, ncb int
	x       *Crosstalk
	layers  []layerExec
}

// matKey memoizes gate matrices within one compilation: repeated structures
// (every Trotter step uses the same Ucan/ECR parameters) build each matrix
// once instead of per instruction.
type matKey struct {
	g          gates.Kind
	nq, np     int
	p0, p1, p2 float64
}

// Runner implements Engine.
var _ Engine = (*Runner)(nil)

func (r *Runner) compile(c *circuit.Circuit) (*compiled, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.NQubits > MaxQubits {
		return nil, fmt.Errorf("sim: %d qubits exceed the statevector limit of %d; use the stabilizer engine (internal/stab) for full-scale twirled circuits", c.NQubits, MaxQubits)
	}
	cp := &compiled{nq: c.NQubits, ncb: c.NCBits, x: NewCrosstalk(r.Dev, c), layers: make([]layerExec, len(c.Layers))}
	memo := map[matKey]linalg.Matrix{}
	matrix := func(nq int, g gates.Kind, params []float64) linalg.Matrix {
		k := matKey{g: g, nq: nq, np: len(params)}
		if len(params) > 3 {
			// Uncacheable arity; build directly.
			if nq == 1 {
				return gates.Matrix1Q(g, params...)
			}
			return gates.Matrix2Q(g, params...)
		}
		switch len(params) {
		case 3:
			k.p2 = params[2]
			fallthrough
		case 2:
			k.p1 = params[1]
			fallthrough
		case 1:
			k.p0 = params[0]
		}
		if m, ok := memo[k]; ok {
			return m
		}
		var m linalg.Matrix
		if nq == 1 {
			m = gates.Matrix1Q(g, params...)
		} else {
			m = gates.Matrix2Q(g, params...)
		}
		memo[k] = m
		return m
	}

	for li := range cp.layers {
		le := &cp.layers[li]
		cp.x.Lower(&le.Lowered, &c.Layers[li])
		le.mats = make([]linalg.Matrix, len(le.Events))
		for i := range le.Events {
			in := le.Events[i].In
			switch le.Events[i].Kind {
			case EvGate1Q:
				le.mats[i] = matrix(1, in.Gate, in.Params)
			case EvPulse:
				le.mats[i] = xMat
				if in.Gate == gates.YGate {
					le.mats[i] = yMat
				}
			case EvGate2Q:
				if in.Gate == gates.ECR {
					le.mats[i] = ecrFirstHalf
				} else {
					le.mats[i] = matrix(2, in.Gate, in.Params)
				}
			case EvEcho:
				if in.Gate == gates.ECR {
					le.mats[i] = ecrSecondHalf
				}
			}
		}
	}
	return cp, nil
}

// Result aggregates sampled outcomes.
type Result struct {
	Counts map[string]int
	Shots  int
}

// Probability returns the empirical probability of bitstrings matching the
// pattern, where pattern[i] constrains classical bit i to '0' or '1' ('x'
// matches anything). A constrained position beyond the end of a measured
// bitstring is a non-match (the pattern demands a bit that was never
// recorded); measured bits beyond the end of the pattern are unconstrained
// and match.
func (r Result) Probability(pattern string) float64 {
	if r.Shots == 0 {
		return 0
	}
	hits := 0
	for bits, n := range r.Counts {
		if matchesPattern(pattern, bits) {
			hits += n
		}
	}
	return float64(hits) / float64(r.Shots)
}

func matchesPattern(pattern, bits string) bool {
	for i := 0; i < len(pattern); i++ {
		if pattern[i] == 'x' {
			continue
		}
		if i >= len(bits) || pattern[i] != bits[i] {
			return false
		}
	}
	return true
}

// BitsKey formats measured classical bits as the Counts map key
// (classical bit i at string position i). Shared with the stabilizer
// engine so both backends key merged counts identically.
func BitsKey(cbits []int) string {
	b := make([]byte, len(cbits))
	for i, v := range cbits {
		b[i] = byte('0' + v)
	}
	return string(b)
}

// span opens an engine-level span on the runner's configured tracer
// (no-op Span when tracing is disabled). A helper rather than inline
// calls because some Runner methods take a parameter named obs, which
// shadows the package name.
func (r *Runner) span(name string) obs.Span {
	if !r.Cfg.Tracer.Enabled() {
		return obs.Span{}
	}
	return r.Cfg.Tracer.Start(name).WithLane(r.Cfg.Lane)
}

// Counts runs the circuit and returns measured bitstring counts (classical
// bit i at string position i).
func (r *Runner) Counts(c *circuit.Circuit) (Result, error) {
	sp := r.span("sim.counts")
	defer sp.End()
	cp, err := r.compile(c)
	if err != nil {
		return Result{}, err
	}
	shots := r.numShots()
	res := Result{Counts: map[string]int{}, Shots: shots}
	keys := make([]string, shots)
	r.forEachShot(func(i int, s *shot) {
		s.run(cp)
		keys[i] = BitsKey(s.cbits)
	}, cp)
	for _, k := range keys {
		res.Counts[k]++
	}
	return res, nil
}

// Expectations runs the circuit (which must not contain measurement of the
// observable qubits if exact expectations are desired) and returns the mean
// over noise trajectories of the exact expectation value of each observable
// on the final state.
func (r *Runner) Expectations(c *circuit.Circuit, obs []ObsSpec) ([]float64, error) {
	sp := r.span("sim.expectations")
	defer sp.End()
	cp, err := r.compile(c)
	if err != nil {
		return nil, err
	}
	plans := make([]obsPlan, len(obs))
	for j, o := range obs {
		plans[j] = o.plan()
	}
	shots := r.numShots()
	nobs := len(obs)
	// Flat per-shot value matrix: workers write disjoint rows, then the
	// reduction runs in shot-index order so the floating-point sum is
	// independent of scheduling.
	sums := make([]float64, shots*nobs)
	r.forEachShot(func(i int, s *shot) {
		s.run(cp)
		s.flushAll()
		row := sums[i*nobs : (i+1)*nobs]
		for j := range plans {
			row[j] = plans[j].eval(s)
		}
	}, cp)
	out := make([]float64, nobs)
	for i := 0; i < shots; i++ {
		for j := 0; j < nobs; j++ {
			out[j] += sums[i*nobs+j]
		}
	}
	for j := range out {
		out[j] /= float64(shots)
	}
	return out, nil
}

// FinalState runs a single trajectory (shot 0) and returns the final
// statevector with all pending coherent phases applied. For configs without
// stochastic channels the result is deterministic; with them it is one
// random trajectory.
func (r *Runner) FinalState(c *circuit.Circuit) (linalg.Vector, error) {
	cp, err := r.compile(c)
	if err != nil {
		return nil, err
	}
	s := r.newShot(cp)
	s.reset(r.shotSeed(0))
	s.run(cp)
	s.flushAll()
	return s.psi, nil
}

// ObsSpec is a Pauli observable given as a label per qubit, e.g. {0:"X",
// 5:"X"} for <X0 X5>.
type ObsSpec map[int]byte

// obsOp is one non-diagonal factor of an observable.
type obsOp struct {
	q   int
	mat linalg.Matrix
}

// obsPlan is a compiled observable: the Z factors folded into a parity
// mask (they act diagonally on the basis) plus the X/Y factors in qubit
// order. Plans are computed once per Expectations call so the per-shot
// evaluation stays allocation-free and independent of map iteration order.
type obsPlan struct {
	zMask int
	ops   []obsOp
}

func (o ObsSpec) plan() obsPlan {
	var p obsPlan
	qs := make([]int, 0, len(o))
	for q := range o {
		qs = append(qs, q)
	}
	sort.Ints(qs)
	for _, q := range qs {
		switch o[q] {
		case 'X':
			p.ops = append(p.ops, obsOp{q: q, mat: gates.Matrix1Q(gates.XGate)})
		case 'Y':
			p.ops = append(p.ops, obsOp{q: q, mat: gates.Matrix1Q(gates.YGate)})
		case 'Z':
			p.zMask |= 1 << q
		case 'I':
		default:
			panic(fmt.Sprintf("sim: invalid observable label %q", o[q]))
		}
	}
	return p
}

// eval returns <psi| P |psi> for the planned Pauli observable. Z-only
// observables are evaluated diagonally — a single pass over |psi|^2 with a
// parity sign, no copy. Observables with X/Y factors apply them to the
// shot's scratch vector (reused across observables and shots) and fold the
// Z factors into the sign of the inner-product accumulation.
func (p obsPlan) eval(s *shot) float64 {
	psi := s.psi
	if p.zMask >= len(psi) {
		// An out-of-range X/Y qubit panics inside Apply1Q; give Z labels
		// the same loud failure instead of silently acting as identity.
		panic(fmt.Sprintf("sim: observable Z qubit out of range for %d-amplitude state (mask %#x)", len(psi), p.zMask))
	}
	if len(p.ops) == 0 {
		sum := 0.0
		for b, a := range psi {
			v := real(a)*real(a) + imag(a)*imag(a)
			if bits.OnesCount(uint(b&p.zMask))&1 == 1 {
				sum -= v
			} else {
				sum += v
			}
		}
		return sum
	}
	w := s.obsScratch()
	copy(w, psi)
	for _, op := range p.ops {
		w.Apply1Q(op.mat, op.q)
	}
	sum := 0.0
	for b := range psi {
		a, x := psi[b], w[b]
		re := real(a)*real(x) + imag(a)*imag(x) // real(conj(a) * x)
		if p.zMask != 0 && bits.OnesCount(uint(b&p.zMask))&1 == 1 {
			re = -re
		}
		sum += re
	}
	return sum
}
