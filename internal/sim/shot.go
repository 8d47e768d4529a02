package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"casq/internal/gates"
	"casq/internal/linalg"
)

// shot holds per-trajectory state: the statevector, classical bits, the
// diagonal coherent-phase accumulator, and the per-shot random frequency
// offsets (charge parity, quasi-static detuning). One shot value is reused
// across every trajectory a worker runs: reset re-seeds the RNG and clears
// the state in place, so the steady-state shot loop performs no heap
// allocations.
type shot struct {
	r   *Runner
	cp  *compiled
	src rand.Source
	rng *rand.Rand

	psi   linalg.Vector
	cbits []int

	phiZ  []float64 // pending Rz angle per qubit
	phiZZ []float64 // pending Rzz angle per edge index

	omegaExtra []float64 // rad/ns per qubit: parity + quasistatic

	// Flush scratch, reused across applyDiagonal calls: per staged term the
	// basis mask(s) and the precomputed half-angle phase factors for even
	// (e^{-i phi/2}) and odd (e^{+i phi/2}) Z parity.
	zMasks        []int
	zEven, zOdd   []complex128
	zzMasksA      []int
	zzMasksB      []int
	zzEven, zzOdd []complex128
	obsScratchVec linalg.Vector // lazily sized observable scratch
}

// newShot allocates a shot's buffers once. It must be paired with reset
// before the first trajectory runs.
func (r *Runner) newShot(cp *compiled) *shot {
	src := rand.NewSource(0)
	s := &shot{
		r:          r,
		cp:         cp,
		src:        src,
		rng:        rand.New(src),
		psi:        linalg.NewVector(cp.nq),
		cbits:      make([]int, cp.ncb),
		phiZ:       make([]float64, cp.nq),
		phiZZ:      make([]float64, len(cp.x.Edges)),
		omegaExtra: make([]float64, cp.nq),
		zMasks:     make([]int, 0, cp.nq),
		zEven:      make([]complex128, 0, cp.nq),
		zOdd:       make([]complex128, 0, cp.nq),
		zzMasksA:   make([]int, 0, len(cp.x.Edges)),
		zzMasksB:   make([]int, 0, len(cp.x.Edges)),
		zzEven:     make([]complex128, 0, len(cp.x.Edges)),
		zzOdd:      make([]complex128, 0, len(cp.x.Edges)),
	}
	return s
}

// reset prepares the shot for a new trajectory: re-seed the RNG (the stream
// is identical to a freshly constructed rand.New(rand.NewSource(seed))),
// restore |0...0>, clear classical bits and accumulators, and redraw the
// per-shot frequency offsets in the same RNG order as before the reuse
// optimization, so trajectories are bit-identical to per-shot allocation.
func (s *shot) reset(seed int64) {
	s.src.Seed(seed)
	for i := range s.psi {
		s.psi[i] = 0
	}
	s.psi[0] = 1
	for i := range s.cbits {
		s.cbits[i] = 0
	}
	for i := range s.phiZ {
		s.phiZ[i] = 0
	}
	for i := range s.phiZZ {
		s.phiZZ[i] = 0
	}
	r, cp := s.r, s.cp
	for q := 0; q < cp.nq; q++ {
		w := 0.0
		if r.Cfg.EnableParity {
			eps := 1.0
			if s.rng.Intn(2) == 1 {
				eps = -1
			}
			w += eps * r.Dev.Delta[q] * hzToRadPerNs
		}
		if r.Cfg.EnableQuasistatic && q < len(r.Dev.Quasistatic) {
			w += s.rng.NormFloat64() * r.Dev.Quasistatic[q] * hzToRadPerNs
		}
		s.omegaExtra[q] = w
	}
}

// obsScratch returns the shot's observable-evaluation scratch vector,
// allocating it on first use (Counts runs never pay for it).
func (s *shot) obsScratch() linalg.Vector {
	if s.obsScratchVec == nil {
		s.obsScratchVec = make(linalg.Vector, len(s.psi))
	}
	return s.obsScratchVec
}

// numShots returns the effective shot count (at least 1).
func (r *Runner) numShots() int {
	if r.Cfg.Shots <= 0 {
		return 1
	}
	return r.Cfg.Shots
}

// shotSeed derives the deterministic seed of shot i.
func (r *Runner) shotSeed(i int) int64 {
	return ShotSeed(r.Cfg.Seed, i)
}

// ShotSeed derives the deterministic seed of shot i from a config seed.
// It is the single seeding convention of every engine (the stabilizer
// engine consumes it too), so trajectory seeding cannot silently diverge
// between backends.
func ShotSeed(seed int64, i int) int64 {
	return seed*1000003 + int64(i)*7919 + 13
}

// ForEachShot runs fn for every shot index, parallelized over workers
// (0 = GOMAXPROCS), with per-worker state created once and reused: each
// worker owns one S for its whole lifetime and claims indices from an
// atomic counter, so the steady-state loop allocates nothing and results
// must not depend on which worker ran which index. With one worker the
// loop runs inline with no goroutines at all. Shared by the statevector
// and stabilizer engines.
func ForEachShot[S any](shots, workers int, newState func() S, fn func(i int, s S)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shots {
		workers = shots
	}
	if workers == 1 {
		s := newState()
		for i := 0; i < shots; i++ {
			fn(i, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= shots {
					return
				}
				fn(i, s)
			}
		}()
	}
	wg.Wait()
}

// forEachShot is the Runner's shot loop: reusable per-worker shot state,
// deterministic per-shot seeding independent of scheduling.
func (r *Runner) forEachShot(fn func(i int, s *shot), cp *compiled) {
	ForEachShot(r.numShots(), r.Cfg.Workers, func() *shot { return r.newShot(cp) },
		func(i int, s *shot) {
			s.reset(r.shotSeed(i))
			fn(i, s)
		})
}

// run executes every layer of the compiled circuit.
func (s *shot) run(cp *compiled) {
	for li := range cp.layers {
		s.runLayer(&cp.layers[li])
	}
}

func (s *shot) runLayer(l *layerExec) {
	cur := l.Start
	for i := range l.Events {
		ev := &l.Events[i]
		s.accumulate(l, cur, ev.T)
		cur = ev.T
		s.exec(ev, l.mats[i])
	}
	s.accumulate(l, cur, l.Start+l.Dur)
	if s.r.Cfg.EnableT1T2 && l.Dur > 0 {
		s.applyRelaxation(l.Dur)
	}
}

// exec applies one event; mat is its gate matrix from compile.
func (s *shot) exec(ev *Event, mat linalg.Matrix) {
	if c := ev.In.Cond; c != nil && s.cbits[c.Bit] != c.Value {
		return
	}
	switch ev.Kind {
	case EvVirtualZ:
		s.phiZ[ev.Q0] += ev.Angle
	case EvRZZ:
		s.phiZZ[ev.Edge] += ev.Angle
		// Rzz(theta) = exp(-i theta/2 ZZ) carries no single-qubit part.
	case EvPulse:
		s.flipAccumulator(ev.Q0)
		s.psi.Apply1Q(mat, ev.Q0)
		if ev.ErrP > 0 {
			s.depolarize1Q(ev.Q0, ev.ErrP)
		}
	case EvEcho:
		s.flipAccumulator(ev.Q0)
		if ev.In.Gate == gates.ECR {
			// The ECR's physical echo: X on the control, then the
			// second half of the gate.
			s.psi.Apply1Q(xMat, ev.Q0)
			s.apply2Q(mat, ev.Q0, ev.Q1)
		}
	case EvGate1Q:
		s.flushQubit(ev.Q0)
		s.psi.Apply1Q(mat, ev.Q0)
		if ev.ErrP > 0 {
			s.depolarize1Q(ev.Q0, ev.ErrP)
		}
	case EvGate2Q:
		s.apply2Q(mat, ev.Q0, ev.Q1)
	case EvGateErr2Q:
		s.depolarize2Q(ev.Q0, ev.Q1, ev.ErrP)
	case EvMeasure:
		s.measure(ev.Q0, ev.In.CBit)
	}
}

// apply2Q flushes both operands and applies a two-qubit matrix. Gate
// matrices use the |first operand, second operand> basis, so the first
// operand is the high bit of the 4x4 index.
func (s *shot) apply2Q(mat linalg.Matrix, q0, q1 int) {
	s.flushQubit(q0)
	s.flushQubit(q1)
	s.psi.Apply2Q(mat, q0, q1)
}

// accumulate integrates the coherent crosstalk Hamiltonian over [from, to]
// within the layer's context into the pending phase accumulator: the
// shared ZZ and Stark integral, plus this shot's parity and quasistatic
// detuning.
func (s *shot) accumulate(l *layerExec, from, to float64) {
	dt := to - from
	if dt <= 0 {
		return
	}
	cfg := &s.r.Cfg
	s.cp.x.Integrate(cfg, &l.Lowered, dt, s.phiZ, s.phiZZ)
	if cfg.EnableParity || cfg.EnableQuasistatic {
		res := s.r.Dev.RotaryResidual
		for q := 0; q < s.cp.nq; q++ {
			w := s.omegaExtra[q]
			if w == 0 {
				continue
			}
			if l.Rotary[q] {
				w *= res
			}
			s.phiZ[q] += w * dt
		}
	}
}

// flipAccumulator conjugates the pending diagonal phases on q through an X
// (or Y) pulse: Z_q -> -Z_q.
func (s *shot) flipAccumulator(q int) {
	s.phiZ[q] = -s.phiZ[q]
	for _, ei := range s.cp.x.QEdges[q] {
		s.phiZZ[ei] = -s.phiZZ[ei]
	}
}

// stageZ moves the pending Z angle of q (if any) into the flush scratch,
// precomputing its half-angle phase factors.
func (s *shot) stageZ(q int) {
	phi := s.phiZ[q]
	if phi == 0 {
		return
	}
	s.phiZ[q] = 0
	sin, cos := math.Sincos(phi / 2)
	s.zMasks = append(s.zMasks, 1<<q)
	s.zEven = append(s.zEven, complex(cos, -sin))
	s.zOdd = append(s.zOdd, complex(cos, sin))
}

// stageZZ moves the pending ZZ angle of edge ei (if any) into the flush
// scratch.
func (s *shot) stageZZ(ei int) {
	phi := s.phiZZ[ei]
	if phi == 0 {
		return
	}
	s.phiZZ[ei] = 0
	e := s.cp.x.Edges[ei]
	sin, cos := math.Sincos(phi / 2)
	s.zzMasksA = append(s.zzMasksA, 1<<e.A)
	s.zzMasksB = append(s.zzMasksB, 1<<e.B)
	s.zzEven = append(s.zzEven, complex(cos, -sin))
	s.zzOdd = append(s.zzOdd, complex(cos, sin))
}

// flushQubit applies (and clears) every pending phase term involving q.
func (s *shot) flushQubit(q int) {
	s.clearStage()
	s.stageZ(q)
	for _, ei := range s.cp.x.QEdges[q] {
		s.stageZZ(ei)
	}
	s.applyStaged()
}

// flushAll applies and clears the entire accumulator.
func (s *shot) flushAll() {
	s.clearStage()
	for q := 0; q < s.cp.nq; q++ {
		s.stageZ(q)
	}
	for ei := range s.phiZZ {
		s.stageZZ(ei)
	}
	s.applyStaged()
}

func (s *shot) clearStage() {
	s.zMasks = s.zMasks[:0]
	s.zEven = s.zEven[:0]
	s.zOdd = s.zOdd[:0]
	s.zzMasksA = s.zzMasksA[:0]
	s.zzMasksB = s.zzMasksB[:0]
	s.zzEven = s.zzEven[:0]
	s.zzOdd = s.zzOdd[:0]
}

// applyStaged multiplies each amplitude by the staged diagonal unitary
// exp(-i/2 * sum of z-weighted angles). The per-term phase factors were
// precomputed by stageZ/stageZZ with a single math.Sincos each, so the
// per-basis-state work is one complex multiply per staged term — no
// cmplx.Exp in the 2^n loop.
func (s *shot) applyStaged() {
	nz, nzz := len(s.zMasks), len(s.zzMasksA)
	if nz == 0 && nzz == 0 {
		return
	}
	psi := s.psi
	// Fast path: a single Z term is by far the most common flush shape
	// (one qubit flushed before a 1q gate with no pending couplings).
	if nz == 1 && nzz == 0 {
		m := s.zMasks[0]
		fe, fo := s.zEven[0], s.zOdd[0]
		for b := range psi {
			if b&m == 0 {
				psi[b] *= fe
			} else {
				psi[b] *= fo
			}
		}
		return
	}
	for b := range psi {
		f := complex(1.0, 0.0)
		for i := 0; i < nz; i++ {
			if b&s.zMasks[i] == 0 {
				f *= s.zEven[i]
			} else {
				f *= s.zOdd[i]
			}
		}
		for i := 0; i < nzz; i++ {
			if (b&s.zzMasksA[i] == 0) == (b&s.zzMasksB[i] == 0) {
				f *= s.zzEven[i]
			} else {
				f *= s.zzOdd[i]
			}
		}
		psi[b] *= f
	}
}

// depolarize1Q applies a uniform non-identity Pauli with probability p.
func (s *shot) depolarize1Q(q int, p float64) {
	if !s.r.Cfg.EnableGateErr || p <= 0 || s.rng.Float64() >= p {
		return
	}
	s.applyRandomPauli(q)
}

func (s *shot) applyRandomPauli(q int) {
	s.applyPauliCode(q, 1+s.rng.Intn(3))
}

// applyPauliCode applies the Pauli with code pk (0=I, 1=X, 2=Y, 3=Z) to
// qubit q, routing Z through the phase accumulator.
func (s *shot) applyPauliCode(q, pk int) {
	switch pk {
	case 1:
		s.flipAccumulator(q)
		s.psi.Apply1Q(xMat, q)
	case 2:
		s.flipAccumulator(q)
		s.psi.Apply1Q(yMat, q)
	case 3:
		s.phiZ[q] += math.Pi
	}
}

// depolarize2Q applies a uniform non-identity two-qubit Pauli with
// probability p.
func (s *shot) depolarize2Q(q0, q1 int, p float64) {
	if !s.r.Cfg.EnableGateErr || p <= 0 || s.rng.Float64() >= p {
		return
	}
	k := 1 + s.rng.Intn(15) // 1..15, base-4 digits (p0, p1)
	s.applyPauliCode(q0, k%4)
	s.applyPauliCode(q1, k/4)
}

// applyRelaxation applies T1 amplitude damping (trajectory unraveling) and
// pure dephasing for a duration dur (ns) on every qubit. A non-positive T1
// disables amplitude damping entirely, and the pure-dephasing rate then
// reduces to 1/Tphi = 1/T2 (T2-only devices keep their dephasing rather
// than silently losing it to a 1/(2*T1) division by zero).
func (s *shot) applyRelaxation(dur float64) {
	for q := 0; q < s.cp.nq; q++ {
		t1 := s.r.Dev.T1[q]
		t2 := s.r.Dev.T2[q]
		if t1 > 0 {
			gamma := 1 - math.Exp(-dur/t1)
			p1 := s.psi.Prob(q, 1)
			if pj := gamma * p1; pj > 0 && s.rng.Float64() < pj {
				// Quantum jump: |1> -> |0>.
				s.flushAll()
				s.jumpDown(q)
			} else if gamma > 0 {
				// No-jump back-action: K0 = diag(1, sqrt(1-gamma)).
				s.dampNoJump(q, gamma, p1)
			}
		}
		if t2 > 0 {
			// Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1), with the T1
			// term absent when damping is disabled.
			invTphi := 1 / t2
			if t1 > 0 {
				invTphi -= 1 / (2 * t1)
			}
			if invTphi > 0 {
				p := (1 - math.Exp(-dur*invTphi)) / 2
				if s.rng.Float64() < p {
					s.phiZ[q] += math.Pi
				}
			}
		}
	}
}

func (s *shot) jumpDown(q int) {
	bit := 1 << q
	for b := range s.psi {
		if b&bit == 0 {
			s.psi[b] = s.psi[b|bit]
		} else {
			s.psi[b] = 0
		}
	}
	s.psi.Normalize()
}

// dampNoJump applies the no-jump Kraus K0 = diag(1, sqrt(1-gamma)) on q
// and renormalizes in a single pass: the state enters normalized, so the
// post-damp norm is sqrt(1 - gamma*p1) analytically, with p1 the excited
// population already computed for the jump draw. (The separate
// damp-then-Normalize formulation cost three extra full-vector passes per
// qubit per layer.)
func (s *shot) dampNoJump(q int, gamma, p1 float64) {
	n2 := 1 - gamma*p1
	if n2 <= 0 {
		// Fully damped within rounding; the jump branch should have fired.
		// Fall back to the explicit renormalization.
		bit := 1 << q
		k := complex(math.Sqrt(1-gamma), 0)
		for b := range s.psi {
			if b&bit != 0 {
				s.psi[b] *= k
			}
		}
		s.psi.Normalize()
		return
	}
	inv := 1 / math.Sqrt(n2)
	f0 := complex(inv, 0)
	f1 := complex(math.Sqrt(1-gamma)*inv, 0)
	bit := 1 << q
	for b := range s.psi {
		if b&bit == 0 {
			s.psi[b] *= f0
		} else {
			s.psi[b] *= f1
		}
	}
}

// measure projects qubit q, storing the (readout-error-corrupted) outcome in
// classical bit cbit. The collapse itself uses the true outcome.
func (s *shot) measure(q, cbit int) {
	p1 := s.psi.Prob(q, 1)
	bit := 0
	if s.rng.Float64() < p1 {
		bit = 1
	}
	s.psi.Collapse(q, bit)
	recorded := bit
	if s.r.Cfg.EnableReadoutErr && s.rng.Float64() < s.r.Dev.ReadoutErr[q] {
		recorded = 1 - recorded
	}
	if cbit >= 0 && cbit < len(s.cbits) {
		s.cbits[cbit] = recorded
	}
}

var (
	xMat = linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	yMat = linalg.FromRows([][]complex128{{0, -1i}, {1i, 0}})

	// The ECR runs as its physical sequence ZX(pi/4), X on the control,
	// ZX(-pi/4), so echo alignment effects emerge from the dynamics.
	ecrFirstHalf  = gates.Matrix2Q(gates.ZX, math.Pi/4)
	ecrSecondHalf = gates.Matrix2Q(gates.ZX, -math.Pi/4)
)
