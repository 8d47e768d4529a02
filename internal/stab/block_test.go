package stab

import (
	"math"
	"math/bits"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/pauli"
	"casq/internal/sched"
	"casq/internal/sim"
)

// drawBits draws n 64-shot masks from a Bernoulli table and returns the
// total set-bit count.
func drawBits(b *bern, r *wordRNG, n int) int {
	ones := 0
	for i := 0; i < n; i++ {
		ones += bits.OnesCount64(b.draw(r))
	}
	return ones
}

// TestBernoulliMaskFrequencies checks the word-mask Bernoulli sampler on
// both paths (sparse geometric gaps and dense binary expansion): the
// set-bit frequency over a large fixed-seed sample must sit within 5
// standard errors of p.
func TestBernoulliMaskFrequencies(t *testing.T) {
	const words = 4000
	n := float64(words * 64)
	for _, p := range []float64{0, 0.0005, 0.004, 0.04, 0.06, 0.25, 0.5, 0.75, 1} {
		b := makeBern(p)
		r := &wordRNG{}
		r.seed(12345)
		got := float64(drawBits(&b, r, words)) / n
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("p=%g: frequency %.6f off by more than %.6f", p, got, tol)
		}
	}
}

// TestBernSparseTinyP draws masks at probabilities so small that a gap
// between set bits overflows an int: 10^5 words must set no bit.
func TestBernSparseTinyP(t *testing.T) {
	for _, p := range []float64{5e-19, 1e-19, 1e-20, 1e-30, 1e-300, 5e-324} {
		b := makeBern(p)
		r := &wordRNG{}
		r.seed(12345)
		if ones := drawBits(&b, r, 100000); ones != 0 {
			t.Errorf("p=%g: %d bits set in 100000 words", p, ones)
		}
	}
}

// drawEager is the dense draw combined from the bottom word up: all n
// outputs of the binary expansion, each ORed or ANDed into the mask. The
// lazy draw must return the same mask and leave the same RNG state.
func (b *bern) drawEager(r *wordRNG) uint64 {
	p53 := b.fix53
	t := bits.TrailingZeros64(p53)
	w := r.next()
	for j := t + 1; j < 53; j++ {
		if p53>>uint(j)&1 == 1 {
			w = r.next() | w
		} else {
			w = r.next() & w
		}
	}
	return w
}

// checkDenseDraws draws masks from two copies of one block RNG, lazily
// and eagerly, and reports the first draw where the masks or the states
// after it differ.
func checkDenseDraws(t *testing.T, p float64, seed uint64, draws int) {
	t.Helper()
	b := makeBern(p)
	if b.invLog != 0 || b.fix53 == 0 {
		t.Fatalf("p=%v does not take the dense path", p)
	}
	lazy, eager := wordRNG{s: seed}, wordRNG{s: seed}
	for d := 0; d < draws; d++ {
		got, want := b.draw(&lazy), b.drawEager(&eager)
		if got != want || lazy.s != eager.s {
			t.Fatalf("p=%v seed=%#x draw %d: mask %#x state %#x, eager mask %#x state %#x",
				p, seed, d, got, lazy.s, want, eager.s)
		}
	}
}

// TestBernDenseMatchesEager pins the lazily decided dense Bernoulli mask
// to the eager combination over every output: the same mask and the same
// RNG state after each draw, at the edges of the dense range (just above
// bernSparse and just below 1), at powers of two (one or few outputs, all
// AND or all OR), and at random p, over many seeds.
func TestBernDenseMatchesEager(t *testing.T) {
	ps := []float64{math.Nextafter(bernSparse, 1), 0.0625, 0.25, 0.5, 0.75, 0.97, 1 - 0x1p-53}
	rng := wordRNG{s: 2024}
	for i := 0; i < 64; i++ {
		ps = append(ps, bernSparse+(1-bernSparse)*rng.float64())
	}
	for _, p := range ps {
		for seed := 0; seed < 64; seed++ {
			checkDenseDraws(t, p, splitMix(uint64(seed)), 16)
		}
	}
}

// drawLoop is the sparse draw without the empty-word bound: every word
// takes the logarithm of its first draw, and the loop alone finds that
// its first gap is at least 64. The bounded draw must return the same
// mask and leave the same RNG state.
func (b *bern) drawLoop(r *wordRNG) uint64 {
	var w uint64
	i := 0
	for g := math.Log(r.float64()) * b.invLog; g < float64(64-i); g = math.Log(r.float64()) * b.invLog {
		i += int(g)
		w |= 1 << uint(i)
		i++
	}
	return w
}

// unxorshift inverts y = x ^ x>>s.
func unxorshift(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x = y ^ x>>s
	}
	return x
}

// inverse64 returns the inverse of an odd c modulo 2^64 by Newton's
// iteration: c*c = 1 mod 8, and each step doubles the correct low bits.
func inverse64(c uint64) uint64 {
	x := c
	for i := 0; i < 5; i++ {
		x *= 2 - c*x
	}
	return x
}

// unsplitMix inverts splitMix, which is a bijection: it undoes each
// xorshift and multiplies by the inverses of the two constants.
func unsplitMix(z uint64) uint64 {
	z = unxorshift(z, 31) * inverse64(0x94d049bb133111eb)
	z = unxorshift(z, 27) * inverse64(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// checkSparseDraws draws masks from two copies of one block RNG, with the
// empty-word bound and by the loop alone, and reports the first draw
// where the masks or the states after it differ.
func checkSparseDraws(t *testing.T, b *bern, seed uint64, draws int) {
	t.Helper()
	bounded, loop := wordRNG{s: seed}, wordRNG{s: seed}
	for d := 0; d < draws; d++ {
		got, want := b.draw(&bounded), b.drawLoop(&loop)
		if got != want || bounded.s != loop.s {
			t.Fatalf("p=%v seed=%#x draw %d: mask %#x state %#x, loop mask %#x state %#x",
				b.p, seed, d, got, bounded.s, want, loop.s)
		}
	}
}

// checkBoundDraw puts the next output's top 53 bits at the empty-word
// bound plus k, with low as its low 11 bits, and compares two draws from
// there with the loop's. At or below the bound the loop's first gap must
// be at least 64.
func checkBoundDraw(t *testing.T, b *bern, k int64, low uint64) {
	t.Helper()
	d := uint64(int64(b.fix53) + k)
	seed := unsplitMix(d<<11|low&0x7ff) - splitMixGamma
	if r := (wordRNG{s: seed}); r.next()>>11 != d {
		t.Fatalf("p=%v: state %#x does not draw %d", b.p, seed, d)
	}
	if g := math.Log(unit53(d)) * b.invLog; k <= 0 && !(g >= 64) {
		t.Fatalf("p=%v: draw %d at bound%+d has first gap %v < 64", b.p, d, k, g)
	}
	checkSparseDraws(t, b, seed, 2)
}

// TestBernSparseMatchesLoop pins the bounded sparse Bernoulli draw to
// the loop alone: the same mask and the same RNG state after each draw,
// over both ends of the sparse range, log-uniform p, many seeds and
// consecutive draws, and with draws pushed onto each side of the bound.
func TestBernSparseMatchesLoop(t *testing.T) {
	ps := []float64{5e-324, 1e-300, 1e-30, 1e-20, 1e-19, 5e-19, 4e-18, 1e-15,
		1e-9, 1e-4, 0.01, math.Nextafter(bernSparse, 0)}
	rng := wordRNG{s: 2025}
	for i := 0; i < 64; i++ {
		ps = append(ps, math.Exp(math.Log(1e-20)+math.Log(bernSparse/1e-20)*rng.float64()))
	}
	for _, p := range ps {
		b := makeBern(p)
		if b.invLog == 0 {
			t.Fatalf("p=%v does not take the sparse path", p)
		}
		for seed := 0; seed < 64; seed++ {
			checkSparseDraws(t, &b, splitMix(uint64(seed)), 256)
		}
		for k := int64(-3); k <= 3; k++ {
			for _, low := range []uint64{0, 1, 0x400, 0x7ff} {
				checkBoundDraw(t, &b, k, low)
			}
		}
	}
}

// FuzzBernDraw runs the dense lazy-versus-eager check, or the sparse
// bounded-versus-loop check plus one draw at the bound, on arbitrary
// seeds and probabilities; only p outside (0, 1) is skipped.
func FuzzBernDraw(f *testing.F) {
	f.Add(uint64(1), math.Nextafter(bernSparse, 1))
	f.Add(uint64(2), 0.0625)
	f.Add(uint64(3), 0.5)
	f.Add(uint64(4), 0.97)
	f.Add(uint64(5), 1-0x1p-53)
	f.Add(uint64(6), 5e-324)
	f.Add(uint64(7), 1e-19)
	f.Add(uint64(8), 0.001)
	f.Add(uint64(9), math.Nextafter(bernSparse, 0))
	f.Fuzz(func(t *testing.T, seed uint64, p float64) {
		if !(p > 0 && p < 1) {
			t.Skip("not a probability strictly between 0 and 1")
		}
		if p >= bernSparse {
			checkDenseDraws(t, p, seed, 8)
			return
		}
		b := makeBern(p)
		checkSparseDraws(t, &b, seed, 8)
		checkBoundDraw(t, &b, 0, seed>>53)
	})
}

// chanProgram builds a minimal program around the given ops (no Cliffords,
// no tableau needed for channel sampling).
func chanProgram(nq, ncb int, ops []op, meas []measInfo) (*program, *blockProgram) {
	p := &program{nq: nq, ncb: ncb, words: (nq + 63) / 64, ops: ops, meas: meas}
	return p, p.blockPlan()
}

// TestChan1MaskFrequencies is the alias/threshold-table property test for
// single-qubit channels: sampled X/Y/Z outcome frequencies over many
// blocks must match the PTA-derived probabilities under a chi-square
// bound.
func TestChan1MaskFrequencies(t *testing.T) {
	const pX, pY, pZ = 0.02, 0.03, 0.05
	p, bp := chanProgram(1, 0, []op{
		{kind: opChan1, q0: 0, thrX: pX, thrXY: pX + pY, thrXYZ: pX + pY + pZ},
	}, nil)
	f := newBlockFrame(p)
	const blocks = 4000
	var nI, nX, nY, nZ float64
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(7, b))
		f.run(bp)
		x, z := f.x[0], f.z[0]
		nX += float64(bits.OnesCount64(x &^ z))
		nY += float64(bits.OnesCount64(x & z))
		nZ += float64(bits.OnesCount64(z &^ x))
		nI += float64(bits.OnesCount64(^(x | z)))
	}
	n := float64(blocks * 64)
	chi2 := 0.0
	for _, c := range []struct{ obs, p float64 }{
		{nI, 1 - pX - pY - pZ}, {nX, pX}, {nY, pY}, {nZ, pZ},
	} {
		exp := c.p * n
		chi2 += (c.obs - exp) * (c.obs - exp) / exp
	}
	// 3 degrees of freedom; 25 is far beyond the 99.99th percentile.
	if chi2 > 25 {
		t.Errorf("chan1 outcome chi-square = %.2f (I=%.0f X=%.0f Y=%.0f Z=%.0f of %.0f)",
			chi2, nI, nX, nY, nZ, n)
	}
}

// TestChan1PureZFastPath covers the zOnly short-circuit (the coherent
// dephasing channels): only the Z plane moves, at rate thrXYZ.
func TestChan1PureZFastPath(t *testing.T) {
	const pZ = 0.04
	p, bp := chanProgram(1, 0, []op{{kind: opChan1, q0: 0, thrXYZ: pZ}}, nil)
	f := newBlockFrame(p)
	const blocks = 4000
	ones := 0
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(13, b))
		f.run(bp)
		if f.x[0] != 0 {
			t.Fatal("pure-Z channel touched the X plane")
		}
		ones += bits.OnesCount64(f.z[0])
	}
	n := float64(blocks * 64)
	got := float64(ones) / n
	if tol := 5 * math.Sqrt(pZ*(1-pZ)/n); math.Abs(got-pZ) > tol {
		t.Errorf("pure-Z rate %.6f, want %.6f +/- %.6f", got, pZ, tol)
	}
}

// TestZZMaskFrequencies checks the correlated Z(x)Z channel: both qubits'
// Z planes flip on exactly the same shots, at the derived rate.
func TestZZMaskFrequencies(t *testing.T) {
	const pZZ = 0.07
	p, bp := chanProgram(2, 0, []op{{kind: opZZ, q0: 0, q1: 1, prob: pZZ}}, nil)
	f := newBlockFrame(p)
	const blocks = 4000
	ones := 0
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(21, b))
		f.run(bp)
		if f.z[0] != f.z[1] {
			t.Fatal("ZZ flips decorrelated between the qubits")
		}
		if f.x[0] != 0 || f.x[1] != 0 {
			t.Fatal("ZZ channel touched an X plane")
		}
		ones += bits.OnesCount64(f.z[0])
	}
	n := float64(blocks * 64)
	got := float64(ones) / n
	if tol := 5 * math.Sqrt(pZZ*(1-pZZ)/n); math.Abs(got-pZZ) > tol {
		t.Errorf("ZZ rate %.6f, want %.6f +/- %.6f", got, pZZ, tol)
	}
}

// TestDepol2MaskFrequencies checks the two-qubit depolarizing table: the
// event rate matches prob and the 15 non-identity Pauli pairs are drawn
// roughly uniformly (chi-square over the pair categories).
func TestDepol2MaskFrequencies(t *testing.T) {
	const pD = 0.12
	p, bp := chanProgram(2, 0, []op{{kind: opDepol2, q0: 0, q1: 1, prob: pD}}, nil)
	f := newBlockFrame(p)
	const blocks = 6000
	var cat [16]float64
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(33, b))
		f.run(bp)
		for s := 0; s < 64; s++ {
			k0 := int(f.x[0]>>uint(s))&1 | int(f.z[0]>>uint(s))&1<<1
			k1 := int(f.x[1]>>uint(s))&1 | int(f.z[1]>>uint(s))&1<<1
			cat[k0*4+k1]++
		}
	}
	n := float64(blocks * 64)
	chi2 := 0.0
	for k, obs := range cat {
		exp := pD / 15 * n
		if k == 0 {
			exp = (1 - pD) * n
		}
		chi2 += (obs - exp) * (obs - exp) / exp
	}
	// 15 degrees of freedom; 45 is far beyond the 99.99th percentile.
	if chi2 > 45 {
		t.Errorf("depol2 outcome chi-square = %.2f (categories %v)", chi2, cat)
	}
}

// TestMeasureMaskFrequencies covers the measurement tables: deterministic
// reference outcomes with readout-error flips at the calibrated rate, and
// nondeterministic outcomes redrawn 50/50 with the branch-flip stabilizer
// applied to exactly the redrawn shots.
func TestMeasureMaskFrequencies(t *testing.T) {
	// Deterministic ref=1 with 8% readout flip.
	const pRO = 0.08
	p, bp := chanProgram(1, 1,
		[]op{{kind: opMeasure, q0: 0, cbit: 0, prob: pRO, mi: 0}},
		[]measInfo{{ref: 1, det: true}})
	f := newBlockFrame(p)
	const blocks = 4000
	zeros := 0
	for b := 0; b < blocks; b++ {
		f.reset(sim.BlockSeed(41, b))
		f.run(bp)
		zeros += 64 - bits.OnesCount64(f.cbits[0])
	}
	n := float64(blocks * 64)
	got := float64(zeros) / n
	if tol := 5 * math.Sqrt(pRO*(1-pRO)/n); math.Abs(got-pRO) > tol {
		t.Errorf("readout flip rate %.6f, want %.6f +/- %.6f", got, pRO, tol)
	}

	// Nondeterministic: outcomes redraw 50/50, and the recorded
	// anticommuting stabilizer (X on qubit 1 here) flips on exactly the
	// redrawn shots — so qubit 1's X plane must equal the outcome word.
	p2, bp2 := chanProgram(2, 1,
		[]op{{kind: opMeasure, q0: 0, cbit: 0, prob: 0, mi: 0}},
		[]measInfo{{ref: 0, det: false, fx: []uint64{0b10}, fz: []uint64{0}}})
	f2 := newBlockFrame(p2)
	ones := 0
	for b := 0; b < blocks; b++ {
		f2.reset(sim.BlockSeed(43, b))
		f2.run(bp2)
		if f2.x[1] != f2.cbits[0] {
			t.Fatal("branch-flip stabilizer not applied to exactly the redrawn shots")
		}
		ones += bits.OnesCount64(f2.cbits[0])
	}
	got = float64(ones) / n
	if tol := 5 * math.Sqrt(0.25/n); math.Abs(got-0.5) > tol {
		t.Errorf("nondeterministic outcome rate %.6f, want 0.5 +/- %.6f", got, tol)
	}
}

// TestBlockCliffordMasksMatchScalar is the symplectic-mask property test:
// for every cached Clifford table used by the compiler, driving a
// bit-plane frame through the mask form must agree with the scalar
// Conjugate on all Pauli inputs (checked word-parallel: every shot carries
// the same input Pauli).
func TestBlockCliffordMasksMatchScalar(t *testing.T) {
	for _, g := range []gates.Kind{gates.H, gates.S, gates.Sdg, gates.SX, gates.SXdg, gates.ZGate} {
		c1 := clifford1For(g, nil)
		if c1 == nil {
			t.Fatalf("%s: no Clifford table", g)
		}
		p, bp := chanProgram(1, 0, []op{{kind: opCliff1, q0: 0, c1: c1}}, nil)
		f := newBlockFrame(p)
		for in := 0; in < 4; in++ {
			xb, zb := uint64(in&1), uint64(in>>1)
			f.reset(0)
			f.x[0], f.z[0] = onesIf(xb), onesIf(zb)
			f.run(bp)
			wx, wz := xzFromPauli(c1.Conjugate(pauliFromXZ(xb, zb)).Out)
			if f.x[0] != onesIf(wx) || f.z[0] != onesIf(wz) {
				t.Errorf("%s on (x=%d,z=%d): block planes (%x,%x), want (%x,%x)",
					g, xb, zb, f.x[0], f.z[0], onesIf(wx), onesIf(wz))
			}
		}
	}
	for _, g := range []gates.Kind{gates.ECR, gates.CX, gates.SWAP} {
		c2 := clifford2For(g, nil)
		if c2 == nil {
			t.Fatalf("%s: no Clifford table", g)
		}
		p, bp := chanProgram(2, 0, []op{{kind: opCliff2, q0: 0, q1: 1, c2: c2}}, nil)
		f := newBlockFrame(p)
		for in := 0; in < 16; in++ {
			x0, z0 := uint64(in&1), uint64(in>>1&1)
			x1, z1 := uint64(in>>2&1), uint64(in>>3&1)
			f.reset(0)
			f.x[0], f.z[0] = onesIf(x0), onesIf(z0)
			f.x[1], f.z[1] = onesIf(x1), onesIf(z1)
			f.run(bp)
			c := c2.Conjugate(pauli.Pair{P0: pauliFromXZ(x0, z0), P1: pauliFromXZ(x1, z1)})
			wx0, wz0 := xzFromPauli(c.Out.P0)
			wx1, wz1 := xzFromPauli(c.Out.P1)
			if f.x[0] != onesIf(wx0) || f.z[0] != onesIf(wz0) || f.x[1] != onesIf(wx1) || f.z[1] != onesIf(wz1) {
				t.Errorf("%s on input %04b: block planes disagree with scalar conjugation", g, in)
			}
		}
	}
}

var blockSink uint64

// TestBlockShotLoopZeroAlloc mirrors sim's TestShotLoopZeroAlloc for the
// bit-plane path: after the one-time frame construction, the steady-state
// block body — reset, run every op with channels and measurements, read
// an observable parity word — performs zero heap allocations.
func TestBlockShotLoopZeroAlloc(t *testing.T) {
	dev := device.NewLine("alloc", 4, device.DefaultOptions())
	c := circuit.New(4, 4)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(2)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1).ECR(2, 3)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1).ECR(2, 3)
	ml := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < 4; q++ {
		ml.Measure(q, q)
	}
	sched.Schedule(c, dev)
	cfg := sim.DefaultConfig()
	cfg.EnableReadoutErr = true
	e := New(dev, cfg)
	p, err := e.compile(c)
	if err != nil {
		t.Fatal(err)
	}
	bp := p.blockPlan()
	plans, err := p.planObs([]sim.ObsSpec{{0: 'X', 1: 'X'}})
	if err != nil {
		t.Fatal(err)
	}
	pl := plans[0]
	f := newBlockFrame(p)
	f.reset(sim.BlockSeed(e.Cfg.Seed, 0))
	f.run(bp)
	blockSink = f.anticommuteWord(&pl)

	blk := 1
	allocs := testing.AllocsPerRun(50, func() {
		f.reset(sim.BlockSeed(e.Cfg.Seed, blk))
		blk++
		f.run(bp)
		blockSink ^= f.anticommuteWord(&pl)
	})
	if allocs != 0 {
		t.Errorf("steady-state block body allocates %.1f objects per block, want 0", allocs)
	}
}
