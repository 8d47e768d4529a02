package stab

import (
	"math"
	"math/bits"

	"casq/internal/obs"
	"casq/internal/pauli"
	"casq/internal/sim"
)

// This file is the bit-plane shot engine: the batched counterpart of
// frame.go's per-shot frames. Where a frame walks one trajectory at a
// time through per-qubit packed words, the bit-plane path transposes the
// axes — storage is indexed [qubit][shot bit], one uint64 word holding
// the X (or Z) frame bit of 64 shots — so every program op advances 64
// trajectories per word operation, stim-style:
//
//   - Clifford conjugation becomes a symplectic GF(2) linear map applied
//     as masked XORs of whole shot words (signs are unobservable on
//     frames, exactly as in the scalar path);
//   - Pauli channels draw 64-shot Bernoulli masks from precomputed
//     threshold tables (see bern): sparse probabilities sample the set
//     bits geometrically, dense ones combine random words along the
//     binary expansion of p, evaluated from the top word down until every
//     bit is decided — both exact, both O(1)ish per 64 shots;
//   - measurements read a 64-shot outcome word straight off the X plane,
//     redraw nondeterministic branches with one fair-coin word (flipping
//     the recorded anticommuting stabilizer onto exactly the redrawn
//     shots), and record the word into a classical bit-plane.
//
// Each 64-shot block owns a deterministic RNG seeded by
// sim.BlockSeed(seed, block), so results are bit-identical for any worker
// count; the shots%64 remainder runs through frame.go's per-shot frames
// (sim.ShotSeed seeding) as the tail of the same loop.

// wordRNG is the block sampler: a SplitMix64 stream, seeded per 64-shot
// block. It is deliberately not math/rand — the block path draws whole
// words, and the per-shot frames keep their own rand.Source streams.
type wordRNG struct{ s uint64 }

// splitMixGamma is the SplitMix64 state increment.
const splitMixGamma = 0x9e3779b97f4a7c15

func (r *wordRNG) seed(v int64) { r.s = uint64(v) }

func (r *wordRNG) next() uint64 {
	r.s += splitMixGamma
	return splitMix(r.s)
}

// splitMix is the SplitMix64 output function of a state.
func splitMix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float64 returns a uniform draw in (0, 1]: unit53 of the next output's
// top 53 bits.
func (r *wordRNG) float64() float64 { return unit53(r.next() >> 11) }

// unit53 maps a 53-bit draw d to (d + 0.5) / 2^53, the midpoint of its
// cell. From 2^52 up the sum rounds to even, so the top draw maps to 1.
func unit53(d uint64) float64 { return (float64(d) + 0.5) * (1.0 / (1 << 53)) }

// intn returns a uniform draw in [0, n) via the multiply-shift reduction.
func (r *wordRNG) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// bernSparse is the probability below which a Bernoulli mask is cheaper to
// sample by geometric gaps between set bits than by combining words along
// the binary expansion of p (about 7 outputs, see draw). A sparse word
// costs one output and an integer compare when it is empty, which it is
// with probability (1-p)^64, and otherwise a log draw for its first gap
// and one per set bit: 64p + 1 - (1-p)^64 log draws on average, 4.2 at
// bernSparse. Most calibration-derived channels sit far below it, but
// figC1's idle channels reach p = 0.99, and a fifth of its masks on
// eagle127 are dense.
const bernSparse = 0.05

// bern is one precomputed Bernoulli-mask table: everything needed to draw
// a 64-shot mask whose bits are independently 1 with probability p. The
// tables are built once at compile time — this is the "threshold table"
// half of the channel tables; chan1 ops pair one bern with conditional
// X/Y/Z thresholds (see blockOp). A dense mask is decided lazily, from
// the top word of p's binary expansion down, and a sparse one that is
// empty by one compare on the 53-bit draw (see draw).
type bern struct {
	p      float64
	invLog float64 // 1/ln(1-p): sparse path gap scale; 0 selects the dense path
	// fix53 is a 53-bit fixed-point threshold. Dense path: p itself,
	// whose binary expansion draw walks. Sparse path: the largest draw
	// that leaves the word empty (see emptyBelow53). One field serves
	// both, keeping blockOp at 176 bytes.
	fix53 uint64
}

func makeBern(p float64) bern {
	b := bern{p: p}
	switch {
	case p <= 0 || p >= 1:
	case p < bernSparse:
		l := math.Log1p(-p)
		b.invLog = 1 / l
		b.fix53 = emptyBelow53(l)
	default:
		b.fix53 = uint64(math.Ldexp(p, 53))
		if b.fix53 == 0 {
			b.fix53 = 1
		}
	}
	return b
}

// emptyBelow53 returns, for l = ln(1-p), the largest 53-bit draw d that
// certainly starts a sparse word with a gap of at least 64, so that the
// word is empty. The gap ln(u)/l is at least 64 exactly when u is at most
// (1-p)^64 = exp(64l); the bound sits a relative 1e-9 below that, far
// more than the rounding of Exp, Log and the gap product, and is rounded
// down. unit53(d) exceeds d/2^53 by at most 2^-53, which the margin also
// covers, since (1-p)^64 > 0.03 on the sparse path.
func emptyBelow53(l float64) uint64 {
	return uint64(math.Exp(64*l) * (1 - 1e-9) * (1 << 53))
}

// draw samples one 64-shot Bernoulli(p) mask.
func (b *bern) draw(r *wordRNG) uint64 {
	switch {
	case b.p <= 0:
		return 0
	case b.p >= 1:
		return ^uint64(0)
	case b.invLog != 0:
		// Geometric gaps: the index of each set bit advances by
		// 1 + floor(ln(U)/ln(1-p)) — the exact Bernoulli process, visiting
		// only the set bits. A draw at or below fix53 has a first gap of
		// at least 64, so the word is empty without a logarithm. Each gap
		// is compared as a float before it is truncated: at tiny p it can
		// exceed any int (or be +Inf, or NaN when 1/ln(1-p) overflows),
		// and every such gap ends the word.
		d := r.next() >> 11
		if d <= b.fix53 {
			return 0
		}
		var w uint64
		i := 0
		for g := math.Log(unit53(d)) * b.invLog; g < float64(64-i); g = math.Log(r.float64()) * b.invLog {
			i += int(g)
			w |= 1 << uint(i)
			i++
		}
		return w
	}
	// Dense: w = r_{n-1} op ... op r_1 op r_0 over the next n outputs, with
	// op_k OR where bit t+k of fix53 is set and AND where it is clear (the
	// binary expansion of p, exact for its 53-bit truncation). Evaluated top
	// down, an OR word decides the open bits it sets and an AND word those
	// it clears, so about 7 outputs decide all 64 bits; bit 0 of ops is set,
	// so r_0 decides the rest. Output k is splitMix(s0 + (k+1)γ), and the
	// state skips all n outputs, as the bottom-up combination would.
	t := bits.TrailingZeros64(b.fix53)
	ops, n := b.fix53>>uint(t), 53-t
	s0 := r.s
	r.s += uint64(n) * splitMixGamma
	var w uint64
	open := ^uint64(0)
	for k := n - 1; k >= 0 && open != 0; k-- {
		rk := splitMix(s0 + uint64(k+1)*splitMixGamma)
		if ops>>uint(k)&1 == 1 {
			w |= rk & open
			open &^= rk
		} else {
			open &= rk
		}
	}
	return w
}

// symp1 is a one-qubit Clifford's conjugation action on the symplectic
// bits, as masks: newX = (x & mxx) ^ (z & mzx); newZ = (x & mxz) ^ (z & mzz).
// The bit-plane path applies it to 64 shots per word, the tableau to 64
// rows per word.
type symp1 struct {
	mxx, mzx, mxz, mzz uint64
}

// onesIf expands a symplectic bit into a word mask.
func onesIf(b uint64) uint64 { return -(b & 1) }

func newSymp1(tbl *pauli.Clifford1Q) symp1 {
	ax, az := xzFromPauli(tbl.Conjugate(pauli.X).Out)
	bx, bz := xzFromPauli(tbl.Conjugate(pauli.Z).Out)
	return symp1{mxx: onesIf(ax), mzx: onesIf(bx), mxz: onesIf(az), mzz: onesIf(bz)}
}

// symp2 is a two-qubit Clifford's conjugation action on the symplectic
// bits, as masks: out[j] = XOR over i of (in[i] & m[i][j]), with i, j
// running over (x0, z0, x1, z1).
type symp2 struct {
	m [4][4]uint64
}

func newSymp2(tbl *pauli.CliffordTable) symp2 {
	var s symp2
	ins := [4]pauli.Pair{
		{P0: pauli.X, P1: pauli.I},
		{P0: pauli.Z, P1: pauli.I},
		{P0: pauli.I, P1: pauli.X},
		{P0: pauli.I, P1: pauli.Z},
	}
	for i, p := range ins {
		c := tbl.Conjugate(p)
		x0, z0 := xzFromPauli(c.Out.P0)
		x1, z1 := xzFromPauli(c.Out.P1)
		s.m[i][0] = onesIf(x0)
		s.m[i][1] = onesIf(z0)
		s.m[i][2] = onesIf(x1)
		s.m[i][3] = onesIf(z1)
	}
	return s
}

// blockOp is one program op lowered to bit-plane form: Cliffords carry
// their symplectic masks, channels their Bernoulli tables plus conditional
// thresholds, measurements their reference word and branch-flip qubit
// lists. The slice is index-parallel free — it replaces the scalar op
// stream entirely for the block path.
type blockOp struct {
	kind   opKind
	q0, q1 int32

	// opCliff1 and opCliff2 symplectic masks.
	s1 symp1
	sy *symp2

	// Channel table: flip draws the 64-shot event mask; for opChan1 a
	// flipped shot resolves to X/Y/Z by condX/condXY (conditional
	// thresholds within the flip: u < condX -> X, u < condXY -> Y, else
	// Z); zOnly short-circuits the pure-dephasing shape (no X/Y part) to
	// a single word XOR. opMeasure reuses flip for the readout error.
	flip         bern
	condX, conXY float64
	zOnly        bool

	// opMeasure.
	refMask  uint64
	det      bool
	fxQ, fzQ []int32
	cbit     int32
}

// blockProgram is the compiled bit-plane op stream of a program.
type blockProgram struct {
	nq, ncb int
	ops     []blockOp
}

// blockPlan lowers the program's op stream into bit-plane form:
// per-Clifford symplectic masks (two-qubit ones shared per table) and
// per-channel alias/threshold table construction. Called once per compiled
// program, before the shot loop.
func (p *program) blockPlan() *blockProgram {
	bp := &blockProgram{nq: p.nq, ncb: p.ncb, ops: make([]blockOp, len(p.ops))}
	c2memo := map[*pauli.CliffordTable]*symp2{}
	for i := range p.ops {
		o := &p.ops[i]
		b := &bp.ops[i]
		b.kind = o.kind
		b.q0, b.q1 = int32(o.q0), int32(o.q1)
		switch o.kind {
		case opCliff1:
			b.s1 = newSymp1(o.c1)
		case opCliff2:
			sy, ok := c2memo[o.c2]
			if !ok {
				s2 := newSymp2(o.c2)
				sy = &s2
				c2memo[o.c2] = sy
			}
			b.sy = sy
		case opPauliGate:
			// Frame signs are unobservable; nothing to lower.
		case opChan1:
			b.flip = makeBern(o.thrXYZ)
			if o.thrXYZ > 0 {
				b.condX = o.thrX / o.thrXYZ
				b.conXY = o.thrXY / o.thrXYZ
			}
			b.zOnly = o.thrXY == 0
		case opZZ, opDepol2:
			b.flip = makeBern(o.prob)
		case opMeasure:
			inf := &p.meas[o.mi]
			if inf.ref == 1 {
				b.refMask = ^uint64(0)
			}
			b.det = inf.det
			for q := 0; q < p.nq; q++ {
				w, bit := q/64, uint(q%64)
				if !inf.det {
					if inf.fx[w]>>bit&1 == 1 {
						b.fxQ = append(b.fxQ, int32(q))
					}
					if inf.fz[w]>>bit&1 == 1 {
						b.fzQ = append(b.fzQ, int32(q))
					}
				}
			}
			b.flip = makeBern(o.prob)
			b.cbit = int32(o.cbit)
		}
	}
	return bp
}

// blockFrame is one worker's reusable bit-plane state: the X/Z frame bits
// of 64 shots per qubit word, the classical outcome planes, and the
// per-block RNG. One blockFrame is owned by exactly one worker, so the
// steady-state block loop allocates nothing.
type blockFrame struct {
	x, z  []uint64 // [qubit] -> 64-shot word
	cbits []uint64 // [classical bit] -> 64-shot word
	rng   wordRNG
}

func newBlockFrame(p *program) *blockFrame {
	return &blockFrame{
		x:     make([]uint64, p.nq),
		z:     make([]uint64, p.nq),
		cbits: make([]uint64, p.ncb),
	}
}

// reset clears the planes and reseeds the block RNG.
func (f *blockFrame) reset(seed int64) {
	f.rng.seed(seed)
	for i := range f.x {
		f.x[i] = 0
		f.z[i] = 0
	}
	for i := range f.cbits {
		f.cbits[i] = 0
	}
}

// xorCode flips Pauli code (1=X, 2=Y, 3=Z) into the frame planes of qubit
// q on the shots selected by mask.
func (f *blockFrame) xorCode(q int32, code int, mask uint64) {
	switch code {
	case 1:
		f.x[q] ^= mask
	case 2:
		f.x[q] ^= mask
		f.z[q] ^= mask
	case 3:
		f.z[q] ^= mask
	}
}

// run advances all 64 shots of the block through the program: word-
// parallel Clifford conjugation, mask-sampled channels, word measurements.
func (f *blockFrame) run(bp *blockProgram) {
	for i := range bp.ops {
		o := &bp.ops[i]
		switch o.kind {
		case opCliff1:
			x, z := f.x[o.q0], f.z[o.q0]
			f.x[o.q0] = (x & o.s1.mxx) ^ (z & o.s1.mzx)
			f.z[o.q0] = (x & o.s1.mxz) ^ (z & o.s1.mzz)
		case opCliff2:
			m := &o.sy.m
			x0, z0 := f.x[o.q0], f.z[o.q0]
			x1, z1 := f.x[o.q1], f.z[o.q1]
			f.x[o.q0] = (x0 & m[0][0]) ^ (z0 & m[1][0]) ^ (x1 & m[2][0]) ^ (z1 & m[3][0])
			f.z[o.q0] = (x0 & m[0][1]) ^ (z0 & m[1][1]) ^ (x1 & m[2][1]) ^ (z1 & m[3][1])
			f.x[o.q1] = (x0 & m[0][2]) ^ (z0 & m[1][2]) ^ (x1 & m[2][2]) ^ (z1 & m[3][2])
			f.z[o.q1] = (x0 & m[0][3]) ^ (z0 & m[1][3]) ^ (x1 & m[2][3]) ^ (z1 & m[3][3])
		case opPauliGate:
			// Sign-only on frames: unobservable.
		case opChan1:
			m := o.flip.draw(&f.rng)
			if m == 0 {
				continue
			}
			if o.zOnly {
				// Pure dephasing (the coherent-integral channels): one XOR.
				f.z[o.q0] ^= m
				continue
			}
			var xm, zm uint64
			for w := m; w != 0; w &= w - 1 {
				bit := uint64(1) << uint(bits.TrailingZeros64(w))
				u := f.rng.float64()
				switch {
				case u < o.condX:
					xm |= bit
				case u < o.conXY:
					xm |= bit
					zm |= bit
				default:
					zm |= bit
				}
			}
			f.x[o.q0] ^= xm
			f.z[o.q0] ^= zm
		case opZZ:
			m := o.flip.draw(&f.rng)
			f.z[o.q0] ^= m
			f.z[o.q1] ^= m
		case opDepol2:
			m := o.flip.draw(&f.rng)
			for w := m; w != 0; w &= w - 1 {
				bit := uint64(1) << uint(bits.TrailingZeros64(w))
				k := 1 + f.rng.intn(15)
				f.xorCode(o.q0, k%4, bit)
				f.xorCode(o.q1, k/4, bit)
			}
		case opMeasure:
			bitsW := f.x[o.q0] ^ o.refMask
			if !o.det {
				// Redraw the nondeterministic collapse for each shot with
				// one fair-coin word: flipped shots move onto the opposite
				// branch via the recorded anticommuting stabilizer,
				// preserving outcome correlations across later
				// measurements — the word-parallel mirror of the scalar
				// path's per-shot redraw.
				r := f.rng.next()
				bitsW ^= r
				for _, q := range o.fxQ {
					f.x[q] ^= r
				}
				for _, q := range o.fzQ {
					f.z[q] ^= r
				}
			}
			if o.flip.p > 0 {
				bitsW ^= o.flip.draw(&f.rng)
			}
			if o.cbit >= 0 && int(o.cbit) < len(f.cbits) {
				f.cbits[o.cbit] = bitsW
			}
		}
	}
}

// anticommuteWord returns the per-shot anticommutation parity of the
// frame block against a compiled observable: bit s is 1 iff shot s's
// frame anticommutes with the observable — 64 shots per XOR, using the
// observable's precomputed qubit lists.
func (f *blockFrame) anticommuteWord(pl *obsPlan) uint64 {
	var par uint64
	for _, q := range pl.zQ {
		par ^= f.x[q]
	}
	for _, q := range pl.xQ {
		par ^= f.z[q]
	}
	return par
}

// blockWorker is one worker's reusable state for the block-granular shot
// loop: the bit-plane frame for full 64-shot words and the scalar
// reference frame for the remainder tail. Each is built on the worker's
// first unit of its kind, so a run of fewer than 64 shots builds no
// bit-plane frame, and only the worker that claims the tail builds a
// scalar one.
type blockWorker struct {
	bf *blockFrame
	sf *frame
}

// forEachShotBlock runs the bit-plane shot loop over the compiled program:
// full 64-shot blocks reset to sim.BlockSeed and run the lowered block
// plan; the shots%64 remainder tail runs the scalar frame with
// sim.ShotSeed seeding, so tail shots match the all-scalar reference path
// of this package's tests at the same indices. Per-unit seeding keeps
// results bit-identical for any worker count.
func (e *Engine) forEachShotBlock(p *program,
	onBlock func(b, base int, bf *blockFrame), onTail func(i int, f *frame)) {
	// Runs of fewer than 64 shots fill no block, so they skip lowering
	// the program (every op's masks and Bernoulli tables).
	var bp *blockProgram
	if e.numShots() >= sim.ShotBlockSize {
		bp = p.blockPlan()
	}
	tr, lane := e.Cfg.Tracer, e.Cfg.Lane
	sim.ForEachShotBlock(e.numShots(), e.Cfg.Workers,
		func() *blockWorker { return new(blockWorker) },
		func(b, base int, w *blockWorker) {
			if w.bf == nil {
				w.bf = newBlockFrame(p)
			}
			var sp obs.Span
			if tr.Enabled() {
				sp = tr.Start("stab.block").WithLane(lane)
			}
			w.bf.reset(sim.BlockSeed(e.Cfg.Seed, b))
			w.bf.run(bp)
			onBlock(b, base, w.bf)
			sp.End()
		},
		func(i int, w *blockWorker) {
			if w.sf == nil {
				w.sf = newFrame(p)
			}
			w.sf.reset(sim.ShotSeed(e.Cfg.Seed, i))
			w.sf.run(p)
			onTail(i, w.sf)
		})
}
