package stab

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"casq/internal/circuit"
	"casq/internal/gates"
	"casq/internal/pauli"
	"casq/internal/sim"
	"casq/internal/twirl"
)

const hzToRadPerNs = 2 * math.Pi * 1e-9

// quarterEps bounds how far a virtual-Z (or RZZ) angle may sit from a
// multiple of pi/2 and still count as Clifford. CA-EC compensation angles
// (tag "ec") are exempt: their residual goes into the coherent-phase
// accumulator, where it cancels the error integral it compensates.
const quarterEps = 1e-9

// opKind enumerates program operations. Clifford and Pauli ops drive both
// the reference tableau and the per-shot frames; channel ops are sampled
// into frames only; measure ops consult the reference record.
type opKind int

const (
	opCliff1    opKind = iota // 1q Clifford conjugation on q0
	opCliff2                  // 2q Clifford conjugation on (q0, q1)
	opPauliGate               // fixed Pauli gate (twirl/DD pulse): tableau signs only
	opChan1                   // one-qubit Pauli channel with cumulative thresholds
	opZZ                      // correlated Z(x)Z flip with probability prob
	opDepol2                  // uniform two-qubit depolarizing with probability prob
	opMeasure                 // Z measurement of q0 into cbit, readout flip prob
)

type op struct {
	kind   opKind
	q0, q1 int
	c1     *pauli.Clifford1Q
	c2     *pauli.CliffordTable
	p      pauli.Pauli
	// chan1 cumulative thresholds: u < thrX -> X, < thrXY -> Y, < thrXYZ -> Z.
	thrX, thrXY, thrXYZ float64
	prob                float64 // opZZ / opDepol2 probability, opMeasure readout flip
	cbit                int
	mi                  int // measurement index into program.meas
}

// measInfo is the reference record of one measurement: the tableau's
// outcome, whether it was deterministic, and — when random — the packed
// pre-measurement stabilizer whose frame-multiplication flips the
// collapse branch.
type measInfo struct {
	ref    int
	det    bool
	fx, fz []uint64
}

// program is one compiled circuit: the op stream, the reference
// measurement record, and the final reference tableau (for expectation
// values). A program lives only for the engine call that compiled it,
// which hands its op stream back to opPool on return (release).
type program struct {
	nq, ncb, words int
	ops            []op
	meas           []measInfo
	tab            *Tableau
}

// CompileInfo summarizes a compiled program for benchmarks and tests.
type CompileInfo struct {
	Ops       int // total program operations
	Cliffords int // tableau/frame conjugations
	Channels  int // derived Pauli-channel locations
	Measures  int
}

// opPool recycles op streams between compiles: a cold fig8 request
// compiles 144 programs of about 2,000 ops each, and growing each stream
// from empty allocates about three times its final size.
var opPool = sync.Pool{New: func() any { return new([]op) }}

// release returns the program's op stream to opPool. The program must not
// be used afterwards.
func (p *program) release() {
	ops := p.ops[:0]
	p.ops = nil
	opPool.Put(&ops)
}

// ---- Clifford table resolution -------------------------------------------

type matKey struct {
	g          gates.Kind
	np         int
	p0, p1, p2 float64
}

var (
	tableMu    sync.Mutex
	cliff1Memo = map[matKey]*pauli.Clifford1Q{}
	cliff2Memo = map[matKey]*pauli.CliffordTable{}
	sPow       [4]*pauli.Clifford1Q // S^k conjugation tables, k=1..3 (0 unused)
	sPowOnce   sync.Once
)

func keyFor(g gates.Kind, params []float64) (matKey, bool) {
	k := matKey{g: g, np: len(params)}
	if len(params) > 3 {
		return k, false
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
	return k, true
}

// clifford1For resolves (building on first use) the conjugation table of a
// one-qubit gate kind, or nil when the gate is not Clifford.
func clifford1For(g gates.Kind, params []float64) *pauli.Clifford1Q {
	k, cacheable := keyFor(g, params)
	if cacheable {
		tableMu.Lock()
		if t, ok := cliff1Memo[k]; ok {
			tableMu.Unlock()
			return t
		}
		tableMu.Unlock()
	}
	t, err := pauli.NewClifford1Q(gates.Matrix1Q(g, params...))
	if err != nil {
		t = nil
	}
	if cacheable {
		tableMu.Lock()
		cliff1Memo[k] = t
		tableMu.Unlock()
	}
	return t
}

// clifford2For resolves the conjugation table of a two-qubit gate kind,
// or nil when it is not Clifford. ECR/CX/SWAP reuse the twirl package's
// shared tables.
func clifford2For(g gates.Kind, params []float64) *pauli.CliffordTable {
	switch g {
	case gates.ECR, gates.CX, gates.SWAP:
		t, err := twirl.TableFor(g)
		if err != nil {
			return nil
		}
		return t
	}
	k, cacheable := keyFor(g, params)
	if cacheable {
		tableMu.Lock()
		if t, ok := cliff2Memo[k]; ok {
			tableMu.Unlock()
			return t
		}
		tableMu.Unlock()
	}
	t, err := pauli.NewCliffordTable(gates.Matrix2Q(g, params...))
	if err != nil {
		t = nil
	}
	if cacheable {
		tableMu.Lock()
		cliff2Memo[k] = t
		tableMu.Unlock()
	}
	return t
}

// sPowTable returns the conjugation table of S^k (k in 1..3: S, Z, Sdg).
func sPowTable(k int) *pauli.Clifford1Q {
	sPowOnce.Do(func() {
		for i, g := range []gates.Kind{gates.S, gates.ZGate, gates.Sdg} {
			t, err := pauli.NewClifford1Q(gates.Matrix1Q(g))
			if err != nil {
				panic("stab: S-power table: " + err.Error())
			}
			sPow[i+1] = t
		}
	})
	return sPow[k]
}

// splitQuarter decomposes an angle into its Clifford part k*(pi/2)
// (k in 0..3) and the residual delta in (-pi/4, pi/4].
func splitQuarter(theta float64) (k int, delta float64) {
	r := math.Round(theta / (math.Pi / 2))
	delta = theta - r*(math.Pi/2)
	k = int(r) % 4
	if k < 0 {
		k += 4
	}
	return k, delta
}

// ---- Representability ----------------------------------------------------

// Supports reports whether the circuit is twirl-representable: every gate
// is Clifford up to virtual-Z residuals that the Pauli-twirling
// approximation absorbs. Specifically: any Clifford one-qubit gate;
// RZ/RZZ at multiples of pi/2 (arbitrary angles allowed for "ec"-tagged
// compensation gates, whose residual rides the coherent-phase
// accumulator); ECR/CX/SWAP; measurements. Classically conditioned gates
// and Reset are not representable (frame sampling has no feed-forward).
// A nil error means the stabilizer engine can run the circuit.
func Supports(c *circuit.Circuit) error {
	for li := range c.Layers {
		for ii := range c.Layers[li].Instrs {
			in := &c.Layers[li].Instrs[ii]
			if in.Cond != nil {
				return fmt.Errorf("stab: layer %d: conditioned %s has data-dependent frames", li, in.Gate)
			}
			switch in.Gate {
			case gates.Delay, gates.Barrier, gates.ID, gates.Measure:
			case gates.Reset:
				return fmt.Errorf("stab: layer %d: reset is not representable", li)
			case gates.ZGate, gates.S, gates.Sdg, gates.XGate, gates.YGate, gates.XDD, gates.H, gates.SX, gates.SXdg:
			case gates.RZ:
				if _, d := splitQuarter(in.Params[0]); math.Abs(d) > quarterEps && in.Tag != "ec" {
					return fmt.Errorf("stab: layer %d: rz(%g) is not Clifford", li, in.Params[0])
				}
			case gates.RZZ:
				if _, d := splitQuarter(in.Params[0]); math.Abs(d) > quarterEps && in.Tag != "ec" {
					return fmt.Errorf("stab: layer %d: rzz(%g) is not Clifford", li, in.Params[0])
				}
			case gates.ECR, gates.CX, gates.SWAP:
			case gates.Ucan, gates.ZX:
				if clifford2For(in.Gate, in.Params) == nil {
					return fmt.Errorf("stab: layer %d: %s%v is not Clifford", li, in.Gate, in.Params)
				}
			default:
				if gates.NumQubits(in.Gate) == 1 {
					if clifford1For(in.Gate, in.Params) == nil {
						return fmt.Errorf("stab: layer %d: %s%v is not Clifford", li, in.Gate, in.Params)
					}
				} else {
					return fmt.Errorf("stab: layer %d: %s is not representable", li, in.Gate)
				}
			}
		}
	}
	return nil
}

// HasTwirl reports whether the circuit carries Pauli-twirl gates — the
// precondition for the Pauli-twirling approximation to hold, and what the
// executor's auto engine dispatch requires alongside Supports.
func HasTwirl(c *circuit.Circuit) bool {
	for li := range c.Layers {
		if c.Layers[li].Kind == circuit.TwirlLayer && len(c.Layers[li].Instrs) > 0 {
			return true
		}
		for ii := range c.Layers[li].Instrs {
			if c.Layers[li].Instrs[ii].Tag == "twirl" {
				return true
			}
		}
	}
	return false
}

// ---- Compilation ---------------------------------------------------------

// compiler walks the statevector kernel's lowered layers (sim.Crosstalk)
// with symbolic coherent-phase accumulators in place of amplitudes: it
// integrates every toggling-frame error angle (ZZ, spectator Z, Stark,
// parity, quasistatic) between events, flips accumulator signs at pi
// pulses and echoes, and converts the surviving angles into Pauli-channel
// probabilities where the statevector kernel flushes its phase
// accumulator.
type compiler struct {
	e  *Engine
	x  sim.Crosstalk
	lw sim.Lowered // the layer being walked; storage reused across layers

	phi   []float64 // pending deterministic Z angle per qubit
	tau   []float64 // signed time integral (ns) for per-shot random detuning
	phiZZ []float64 // pending ZZ angle per edge index

	ops   []op
	nMeas int
}

// compilerPool recycles compilers: each compile rebuilds the crosstalk
// table, lowered layer and phase accumulators in storage that earlier
// compiles grew, where a fresh compiler would regrow all of it (a cold
// fig8 request compiles 144 programs).
var compilerPool = sync.Pool{New: func() any { return new(compiler) }}

// release drops the compiler's engine, device and op stream, which the
// program now owns, and returns it to compilerPool.
func (cp *compiler) release() {
	cp.e, cp.ops = nil, nil
	cp.x.Release()
	compilerPool.Put(cp)
}

// zeroed returns s resized to n zeros, reusing its storage when it is
// large enough.
func zeroed(s []float64, n int) []float64 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

func (e *Engine) compile(c *circuit.Circuit) (*program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if err := Supports(c); err != nil {
		return nil, err
	}
	nq := c.NQubits
	cp := compilerPool.Get().(*compiler)
	defer cp.release()
	cp.e = e
	cp.x.Rebuild(e.Dev, c)
	cp.phi = zeroed(cp.phi, nq)
	cp.tau = zeroed(cp.tau, nq)
	cp.phiZZ = zeroed(cp.phiZZ, len(cp.x.Edges))
	cp.ops = (*opPool.Get().(*[]op))[:0]
	cp.nMeas = 0
	for li := range c.Layers {
		cp.x.Lower(&cp.lw, &c.Layers[li])
		cp.layer()
	}
	for q := 0; q < nq; q++ {
		cp.flush(q)
	}

	p := &program{nq: nq, ncb: c.NCBits, words: (nq + 63) / 64, ops: cp.ops}
	p.reference(e.Cfg.Seed)
	return p, nil
}

// layer walks the lowered layer, accumulating coherent phases between
// events and emitting ops at them.
func (cp *compiler) layer() {
	l := &cp.lw
	cur := l.Start
	for i := range l.Events {
		ev := &l.Events[i]
		cp.accumulate(cur, ev.T)
		cur = ev.T
		cp.exec(ev)
	}
	cp.accumulate(cur, l.Start+l.Dur)
	if cp.e.Cfg.EnableT1T2 && l.Dur > 0 {
		for q := range cp.phi {
			cp.emitRelaxation(q, l.Dur)
		}
	}
}

// exec emits the ops of one event. Supports has already checked that
// every gate resolves to a Clifford table.
func (cp *compiler) exec(ev *sim.Event) {
	cfg := &cp.e.Cfg
	in := ev.In
	switch ev.Kind {
	case sim.EvGate2Q:
		if in.Gate != gates.ECR {
			// Z does not generally commute through CX/SWAP/Ucan as
			// modeled (their ghost echo is not a physical pulse), so both
			// operands' pending phases materialize as channels here.
			cp.flush(ev.Q0)
		}
		// An ECR control's pending phases ride: ECR = X(ctrl)·ZX(pi/2)
		// conjugates Z(ctrl) to -Z(ctrl), and the mid-gate echo event
		// applies exactly that sign — so coherent Z/ZZ terms on the
		// control (including control-control ZZ, the CA-EC headline
		// channel) stay in the accumulator until a genuinely
		// non-commuting point, where a deferred EC compensation can still
		// cancel them, matching the statevector kernel's algebra. The
		// target's Z is rotated by ZX into non-diagonal form, so it must
		// convert to a channel before the gate.
		cp.flush(ev.Q1)
		cp.ops = append(cp.ops, op{kind: opCliff2, q0: ev.Q0, q1: ev.Q1, c2: clifford2For(in.Gate, in.Params)})
	case sim.EvPulse:
		cp.flipAccum(ev.Q0)
		p := pauli.X
		if in.Gate == gates.YGate {
			p = pauli.Y
		}
		cp.ops = append(cp.ops, op{kind: opPauliGate, q0: ev.Q0, p: p})
		if cfg.EnableGateErr && ev.ErrP > 0 {
			cp.emitDepol1(ev.Q0, ev.ErrP)
		}
	case sim.EvVirtualZ:
		if in.Gate == gates.RZ && in.Tag == "ec" {
			// A CA-EC compensation exists to cancel the error integral in
			// this same accumulator; splitting off a Clifford part here
			// would desynchronize the two whenever the compensation
			// exceeds pi/4 (net -k*pi/2 at flush instead of ~0), so the
			// full angle rides the accumulator exactly as it does in the
			// statevector kernel.
			cp.phi[ev.Q0] += ev.Angle
			return
		}
		k, delta := splitQuarter(ev.Angle)
		if k != 0 {
			cp.ops = append(cp.ops, op{kind: opCliff1, q0: ev.Q0, c1: sPowTable(k)})
		}
		cp.phi[ev.Q0] += delta
	case sim.EvRZZ:
		if in.Tag == "ec" {
			cp.phiZZ[ev.Edge] += ev.Angle
			return
		}
		k, delta := splitQuarter(ev.Angle)
		if k != 0 {
			cp.ops = append(cp.ops, op{kind: opCliff2, q0: ev.Q0, q1: ev.Q1, c2: clifford2For(gates.RZZ, []float64{float64(k) * math.Pi / 2})})
		}
		cp.phiZZ[ev.Edge] += delta
	case sim.EvEcho:
		// Every gate's echo, the ECR's included: the Clifford applied at
		// the gate start already holds the ECR's physical X.
		cp.flipAccum(ev.Q0)
	case sim.EvGate1Q:
		cp.flush(ev.Q0)
		cp.ops = append(cp.ops, op{kind: opCliff1, q0: ev.Q0, c1: clifford1For(in.Gate, in.Params)})
		if cfg.EnableGateErr && ev.ErrP > 0 {
			cp.emitDepol1(ev.Q0, ev.ErrP)
		}
	case sim.EvGateErr2Q:
		if cfg.EnableGateErr && ev.ErrP > 0 {
			cp.ops = append(cp.ops, op{kind: opDepol2, q0: ev.Q0, q1: ev.Q1, prob: ev.ErrP})
		}
	case sim.EvMeasure:
		cp.flush(ev.Q0)
		flip := 0.0
		if cfg.EnableReadoutErr {
			flip = cp.e.Dev.ReadoutErr[ev.Q0]
		}
		cp.ops = append(cp.ops, op{kind: opMeasure, q0: ev.Q0, cbit: in.CBit, prob: flip, mi: cp.nMeas})
		cp.nMeas++
	}
}

// accumulate integrates the coherent crosstalk Hamiltonian over [from, to]
// into the symbolic phase accumulators: the shared ZZ and Stark integral,
// plus the signed time integral the flush turns into the parity and
// quasistatic coherence factors.
func (cp *compiler) accumulate(from, to float64) {
	dt := to - from
	if dt <= 0 {
		return
	}
	cfg := &cp.e.Cfg
	cp.x.Integrate(cfg, &cp.lw, dt, cp.phi, cp.phiZZ)
	if cfg.EnableParity || cfg.EnableQuasistatic {
		res := cp.e.Dev.RotaryResidual
		for q := range cp.tau {
			f := 1.0
			if cp.lw.Rotary[q] {
				f = res
			}
			cp.tau[q] += dt * f
		}
	}
}

// flipAccum conjugates the pending phases on q through an X/Y pulse.
func (cp *compiler) flipAccum(q int) {
	cp.phi[q] = -cp.phi[q]
	cp.tau[q] = -cp.tau[q]
	for _, ei := range cp.x.QEdges[q] {
		cp.phiZZ[ei] = -cp.phiZZ[ei]
	}
}

// flush converts the pending coherent phases involving q into Pauli
// channels via the Pauli-twirling approximation and clears them. The
// surviving single-qubit angle phi combines the deterministic integral
// with the per-shot random detunings through their characteristic
// functions: 1 - 2 pZ = cos(phi) * cos(delta*tau) * exp(-(sigma*tau)^2/2),
// which is exactly the twirl-averaged coherence factor of the segment.
// Pending ZZ angles become correlated Z(x)Z channels with sin^2(phi/2).
func (cp *compiler) flush(q int) {
	cfg := &cp.e.Cfg
	dev := cp.e.Dev
	c := math.Cos(cp.phi[q])
	if cfg.EnableParity {
		c *= math.Cos(dev.Delta[q] * hzToRadPerNs * cp.tau[q])
	}
	if cfg.EnableQuasistatic && q < len(dev.Quasistatic) {
		sg := dev.Quasistatic[q] * hzToRadPerNs * cp.tau[q]
		c *= math.Exp(-sg * sg / 2)
	}
	cp.phi[q] = 0
	cp.tau[q] = 0
	if pz := (1 - c) / 2; pz > 1e-15 {
		cp.ops = append(cp.ops, op{kind: opChan1, q0: q, thrXYZ: pz})
	}
	for _, ei := range cp.x.QEdges[q] {
		phi := cp.phiZZ[ei]
		if phi == 0 {
			continue
		}
		cp.phiZZ[ei] = 0
		s := math.Sin(phi / 2)
		if pzz := s * s; pzz > 1e-15 {
			ed := cp.x.Edges[ei]
			cp.ops = append(cp.ops, op{kind: opZZ, q0: ed.A, q1: ed.B, prob: pzz})
		}
	}
}

// emitDepol1 emits a uniform one-qubit depolarizing channel (probability p
// split evenly over X, Y, Z — matching the statevector kernel's gate-error
// model).
func (cp *compiler) emitDepol1(q int, p float64) {
	cp.ops = append(cp.ops, op{kind: opChan1, q0: q, thrX: p / 3, thrXY: 2 * p / 3, thrXYZ: p})
}

// emitRelaxation emits the layer's T1/T2 channel on q: the Pauli-twirled
// amplitude-damping channel composed with pure dephasing, with the same
// gamma and 1/Tphi bookkeeping as the statevector kernel (T1 <= 0 disables
// damping and leaves 1/Tphi = 1/T2).
func (cp *compiler) emitRelaxation(q int, dur float64) {
	dev := cp.e.Dev
	t1, t2 := dev.T1[q], dev.T2[q]
	probs := [4]float64{1, 0, 0, 0} // I, X, Y, Z
	if t1 > 0 {
		gamma := 1 - math.Exp(-dur/t1)
		s := math.Sqrt(1 - gamma)
		probs = composeChan(probs, [4]float64{(1 + s) * (1 + s) / 4, gamma / 4, gamma / 4, (1 - s) * (1 - s) / 4})
	}
	if t2 > 0 {
		invTphi := 1 / t2
		if t1 > 0 {
			invTphi -= 1 / (2 * t1)
		}
		if invTphi > 0 {
			pphi := (1 - math.Exp(-dur*invTphi)) / 2
			probs = composeChan(probs, [4]float64{1 - pphi, 0, 0, pphi})
		}
	}
	if probs[1]+probs[2]+probs[3] > 1e-15 {
		cp.ops = append(cp.ops, op{
			kind: opChan1, q0: q,
			thrX: probs[1], thrXY: probs[1] + probs[2], thrXYZ: probs[1] + probs[2] + probs[3],
		})
	}
}

// composeChan convolves two Pauli channels over the phase-free Pauli
// group, indexed I=0, X=1, Y=2, Z=3 (XOR is the group product in this
// enumeration).
func composeChan(a, b [4]float64) [4]float64 {
	var out [4]float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			out[i^j] += a[i] * b[j]
		}
	}
	return out
}

// reference runs the ideal Clifford skeleton once on the tableau, drawing
// nondeterministic measurement outcomes from a seed-derived RNG and
// recording, per measurement, the branch-flip stabilizer the frame
// sampler needs. The RNG is seeded at the first measurement: a program
// that measures nothing (fig8's expectation circuits) never builds one,
// and a freshly seeded source draws the same outcomes either way.
func (p *program) reference(seed int64) {
	p.tab = NewTableau(p.nq)
	var rng *rand.Rand
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opCliff1:
			p.tab.ApplyClifford1(o.q0, o.c1)
		case opCliff2:
			p.tab.ApplyClifford2(o.q0, o.q1, o.c2)
		case opPauliGate:
			p.tab.ApplyPauli(o.q0, o.p)
		case opMeasure:
			if rng == nil {
				rng = rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
			}
			bit, det, fx, fz := p.tab.MeasureZ(o.q0, rng)
			p.meas = append(p.meas, measInfo{ref: bit, det: det, fx: fx, fz: fz})
		}
	}
}

// info summarizes the program.
func (p *program) info() CompileInfo {
	inf := CompileInfo{Ops: len(p.ops), Measures: len(p.meas)}
	for i := range p.ops {
		switch p.ops[i].kind {
		case opCliff1, opCliff2, opPauliGate:
			inf.Cliffords++
		case opChan1, opZZ, opDepol2:
			inf.Channels++
		}
	}
	return inf
}
