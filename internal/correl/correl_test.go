package correl

// Statistical harness conventions (see DESIGN.md "Correlation
// spectroscopy"): every test is seeded (no flaky randomness), acceptance
// bounds are 5-sigma (or the chi-square 5-sigma-equivalent quantile), and
// each bound is derived from either the closed-form model variance or the
// estimator's own jackknife standard error — never an eyeballed tolerance.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"casq/internal/sim"
)

// genIndependent returns n planes of S i.i.d. Bernoulli(p) flips.
func genIndependent(rng *rand.Rand, n, S int, p float64) sim.PackedBits {
	pb := sim.NewPackedBits(n, S)
	for i := 0; i < n; i++ {
		for s := 0; s < S; s++ {
			if rng.Float64() < p {
				pb.Set(i, s, 1)
			}
		}
	}
	return pb
}

func TestPairIndex(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 127} {
		k := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if got := PairIndex(n, i, j); got != k {
					t.Fatalf("PairIndex(%d,%d,%d) = %d, want %d", n, i, j, got, k)
				}
				k++
			}
		}
		if k != Pairs(n) {
			t.Fatalf("Pairs(%d) = %d, enumerated %d", n, Pairs(n), k)
		}
	}
}

// TestIndependentBernoulli5Sigma pins the estimator against the
// closed-form independent model: every off-diagonal covariance must sit
// within 5 jackknife standard errors of zero, the marginals within 5
// binomial standard errors of p, and the jackknife SE itself must be
// calibrated against the analytic sampling variance
// Var(cov) ~ p_i q_i p_j q_j / S.
func TestIndependentBernoulli5Sigma(t *testing.T) {
	const (
		n = 16
		S = 1 << 15
	)
	for _, p := range []float64{0.01, 0.1, 0.5} {
		rng := rand.New(rand.NewSource(1234 + int64(p*1000)))
		m := Estimate(genIndependent(rng, n, S, p))
		sigmaP := math.Sqrt(p * (1 - p) / float64(S))
		for i := 0; i < n; i++ {
			if d := math.Abs(m.P[i] - p); d > 5*sigmaP {
				t.Errorf("p=%v: flip rate of bit %d = %v, off by %.1f sigma", p, i, m.P[i], d/sigmaP)
			}
		}
		sigmaCov := math.Sqrt(p * (1 - p) * p * (1 - p) / float64(S))
		var meanSE float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				se := m.SECovAt(i, j)
				bound := 5 * math.Max(se, sigmaCov)
				if math.Abs(m.CovAt(i, j)) > bound {
					t.Errorf("p=%v: cov(%d,%d) = %v exceeds 5 sigma (%v)", p, i, j, m.CovAt(i, j), bound)
				}
				meanSE += se
			}
		}
		// Jackknife calibration: the mean reported SE must be within a
		// factor 1.5 of the analytic sampling sigma (it concentrates much
		// tighter; 1.5 leaves room for the p=0.01 small-count regime).
		meanSE /= float64(Pairs(n))
		if meanSE < sigmaCov/1.5 || meanSE > sigmaCov*1.5 {
			t.Errorf("p=%v: mean jackknife SE %v not calibrated to analytic %v", p, meanSE, sigmaCov)
		}
	}
}

// zzModel is the shared correlated-ZZ fixture: bits 2k and 2k+1 flip
// together through a shared Bernoulli(q) ZZ event on top of independent
// Bernoulli(p) background flips (flip = background XOR event).
type zzModel struct{ p, q float64 }

func (mo zzModel) rate() float64 { return mo.p*(1-mo.q) + mo.q*(1-mo.p) }

// cov is the closed-form covariance of a shared-event pair.
func (mo zzModel) cov() float64 {
	r := mo.rate()
	e11 := mo.q*(1-mo.p)*(1-mo.p) + (1-mo.q)*mo.p*mo.p
	return e11 - r*r
}

// joint is the closed-form 2x2 joint distribution [p00, p01, p10, p11].
func (mo zzModel) joint() [4]float64 {
	p11 := mo.q*(1-mo.p)*(1-mo.p) + (1-mo.q)*mo.p*mo.p
	p10 := mo.p * (1 - mo.p) // event value cancels across the two branches
	return [4]float64{1 - p11 - 2*p10, p10, p10, p11}
}

func genZZ(rng *rand.Rand, pairs, S int, mo zzModel) sim.PackedBits {
	pb := sim.NewPackedBits(2*pairs, S)
	for s := 0; s < S; s++ {
		for k := 0; k < pairs; k++ {
			e := 0
			if rng.Float64() < mo.q {
				e = 1
			}
			for _, b := range []int{2 * k, 2*k + 1} {
				x := 0
				if rng.Float64() < mo.p {
					x = 1
				}
				pb.Set(b, s, x^e)
			}
		}
	}
	return pb
}

// chiSquare2x2 returns the chi-square goodness-of-fit statistic of an
// observed 2x2 contingency table (JointCounts order) against model joint
// probabilities p summing to 1 over `shots` trials. Cells with zero
// expected count contribute +Inf unless also observed zero — a model that
// forbids an observed outcome is rejected outright. Three degrees of
// freedom; the test-harness convention bounds the statistic at the
// 5-sigma-equivalent quantile.
func chiSquare2x2(n [4]int, p [4]float64, shots int) float64 {
	chi := 0.0
	for k := 0; k < 4; k++ {
		exp := p[k] * float64(shots)
		if exp == 0 {
			if n[k] != 0 {
				return math.Inf(1)
			}
			continue
		}
		d := float64(n[k]) - exp
		chi += d * d / exp
	}
	return chi
}

// chiSquare3DF5Sigma is the df=3 chi-square quantile at the two-sided
// 5-sigma tail probability (~5.7e-7): the harness-wide acceptance bound
// for chiSquare2x2 statistics. A correct model exceeds it about once per
// 1.7 million tables.
const chiSquare3DF5Sigma = 33.0

// TestCorrelatedZZClosedForm pins the estimator against the analytically
// solvable shared-event model: within-pair covariance and correlation
// must match the closed form within 5 jackknife SEs, across-pair
// covariance must vanish, and the chi-square of the joint counts against
// the model distribution must pass at the 5-sigma quantile — while a
// deliberately wrong model (independence) must be rejected by the same
// statistic, so the test has power.
func TestCorrelatedZZClosedForm(t *testing.T) {
	const (
		pairs = 4
		S     = 1 << 16
	)
	mo := zzModel{p: 0.05, q: 0.08}
	rng := rand.New(rand.NewSource(99))
	m := Estimate(genZZ(rng, pairs, S, mo))
	r := mo.rate()
	wantCorr := mo.cov() / (r * (1 - r))
	for k := 0; k < pairs; k++ {
		a, b := 2*k, 2*k+1
		if d := math.Abs(m.CovAt(a, b) - mo.cov()); d > 5*m.SECovAt(a, b) {
			t.Errorf("pair (%d,%d): cov %v vs closed form %v (> 5 SE = %v)",
				a, b, m.CovAt(a, b), mo.cov(), 5*m.SECovAt(a, b))
		}
		if d := math.Abs(m.CorrAt(a, b) - wantCorr); d > 5*m.SECorrAt(a, b) {
			t.Errorf("pair (%d,%d): corr %v vs closed form %v (> 5 SE = %v)",
				a, b, m.CorrAt(a, b), wantCorr, 5*m.SECorrAt(a, b))
		}
		chi := chiSquare2x2(m.JointCounts(a, b), mo.joint(), S)
		if chi > chiSquare3DF5Sigma {
			t.Errorf("pair (%d,%d): chi-square %v vs model exceeds %v", a, b, chi, chiSquare3DF5Sigma)
		}
		// Power check: the independence model must be rejected.
		pi, pj := m.P[a], m.P[b]
		indep := [4]float64{(1 - pi) * (1 - pj), (1 - pi) * pj, pi * (1 - pj), pi * pj}
		if chi := chiSquare2x2(m.JointCounts(a, b), indep, S); chi < chiSquare3DF5Sigma {
			t.Errorf("pair (%d,%d): chi-square %v failed to reject independence", a, b, chi)
		}
	}
	// Bits of different pairs are independent: covariance within 5 sigma
	// of zero.
	for a := 0; a < 2*pairs; a++ {
		for b := a + 1; b < 2*pairs; b++ {
			if b == a+1 && a%2 == 0 {
				continue // within-pair
			}
			if math.Abs(m.CovAt(a, b)) > 5*m.SECovAt(a, b) {
				t.Errorf("cross pair (%d,%d): cov %v exceeds 5 SE %v", a, b, m.CovAt(a, b), 5*m.SECovAt(a, b))
			}
		}
	}
}

// estimateScalar is the naive per-shot reference estimator: it counts the
// sufficient statistics by reading individual bits (joint flips through
// the XOR identity n11 = (n1[i] + n1[j] - nxor)/2) and computes every
// pair's jackknife standard errors eagerly, in the float order SECovAt and
// SECorrAt keep. Its float math after counting matches Estimate's, so the
// two are bit-identical whenever the integer counts agree, and a masked
// tail leaking into a popcount shows up as an exact mismatch.
func estimateScalar(pb sim.PackedBits) (m Matrix, seCov, seCorr []float64) {
	n, S := len(pb.Planes), pb.Shots
	m = Matrix{
		N: n, Shots: S,
		Ones: make([]int, n),
		P:    make([]float64, n),
		N11:  make([]int, Pairs(n)),
		Cov:  make([]float64, Pairs(n)), Corr: make([]float64, Pairs(n)),
	}
	seCov, seCorr = make([]float64, Pairs(n)), make([]float64, Pairs(n))
	if n == 0 || S == 0 {
		return m, seCov, seCorr
	}
	words := blockWords(S)
	rowOnes := make([][]int, n)
	for i := range rowOnes {
		rowOnes[i] = make([]int, words)
		for s := 0; s < S; s++ {
			if pb.Bit(i, s) == 1 {
				rowOnes[i][s/sim.ShotBlockSize]++
			}
		}
		for _, c := range rowOnes[i] {
			m.Ones[i] += c
		}
		m.P[i] = float64(m.Ones[i]) / float64(S)
	}
	xw := make([]int, words)
	thetaCov := make([]float64, words)
	thetaCorr := make([]float64, words)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for w := range xw {
				xw[w] = 0
			}
			for s := 0; s < S; s++ {
				if pb.Bit(i, s) != pb.Bit(j, s) {
					xw[s/sim.ShotBlockSize]++
				}
			}
			nxor := 0
			for _, c := range xw {
				nxor += c
			}
			k := PairIndex(n, i, j)
			n11 := (m.Ones[i] + m.Ones[j] - nxor) / 2
			m.N11[k] = n11
			m.Cov[k] = covOf(n11, m.Ones[i], m.Ones[j], S)
			m.Corr[k] = corrOf(n11, m.Ones[i], m.Ones[j], S)
			if words < 2 {
				continue
			}
			var meanCov, meanCorr float64
			for w := 0; w < words; w++ {
				Sw := S - wordShots(S, w)
				oi := m.Ones[i] - rowOnes[i][w]
				oj := m.Ones[j] - rowOnes[j][w]
				n11w := (oi + oj - (nxor - xw[w])) / 2
				thetaCov[w] = covOf(n11w, oi, oj, Sw)
				thetaCorr[w] = corrOf(n11w, oi, oj, Sw)
				meanCov += thetaCov[w]
				meanCorr += thetaCorr[w]
			}
			W := float64(words)
			meanCov /= W
			meanCorr /= W
			var vc, vr float64
			for w := 0; w < words; w++ {
				dc := thetaCov[w] - meanCov
				dr := thetaCorr[w] - meanCorr
				vc += dc * dc
				vr += dr * dr
			}
			seCov[k] = math.Sqrt((W - 1) / W * vc)
			seCorr[k] = math.Sqrt((W - 1) / W * vr)
		}
	}
	return m, seCov, seCorr
}

// sameBits reports whether two float slices are bit-for-bit equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPackedVsScalarBitIdentical is the differential pin: the packed
// word-parallel estimator, with its on-demand jackknife, and the naive
// per-shot reference must agree bit-for-bit on random planes — every
// field and both standard errors of every pair — including records whose
// shot counts are not multiples of 64 and whose tail words carry
// deliberately planted garbage beyond the last valid shot, the exact class
// of bug a missing tail mask would silently absorb into a popcount.
func TestPackedVsScalarBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, S := range []int{1, 63, 64, 65, 130, 640, 1000} {
		pb := sim.NewPackedBits(13, S)
		for i := range pb.Planes {
			for w := range pb.Planes[i] {
				// Fill whole words: bits beyond S in the last word are
				// garbage the estimator must mask out.
				pb.Planes[i][w] = rng.Uint64()
			}
		}
		packed := Estimate(pb)
		ref, seCov, seCorr := estimateScalar(pb)
		if packed.N != ref.N || packed.Shots != ref.Shots ||
			!reflect.DeepEqual(packed.Ones, ref.Ones) || !reflect.DeepEqual(packed.N11, ref.N11) ||
			!sameBits(packed.P, ref.P) || !sameBits(packed.Cov, ref.Cov) || !sameBits(packed.Corr, ref.Corr) {
			t.Fatalf("shots=%d: packed and scalar estimators differ\npacked: %+v\nscalar: %+v", S, packed, ref)
		}
		for i := 0; i < ref.N; i++ {
			for j := 0; j < ref.N; j++ {
				if i == j {
					continue
				}
				k := PairIndex(ref.N, min(i, j), max(i, j))
				got := []float64{packed.SECovAt(i, j), packed.SECorrAt(i, j)}
				want := []float64{seCov[k], seCorr[k]}
				if !sameBits(got, want) {
					t.Fatalf("shots=%d: SECov, SECorr of (%d,%d) = %v, scalar reference %v", S, i, j, got, want)
				}
				if S <= sim.ShotBlockSize && (got[0] != 0 || got[1] != 0) {
					t.Fatalf("shots=%d: single-block record reported nonzero jackknife SE", S)
				}
			}
		}
	}
}

// TestPackedFromCountsPreservesStatistics pins the counts-map bridge: the
// reconstructed planes carry exactly the original marginal and joint flip
// counts (shot order is synthetic, counts are not).
func TestPackedFromCountsPreservesStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pb := genIndependent(rng, 6, 500, 0.3)
	recon := PackedFromCounts(pb.Counts().Counts, 6)
	if recon.Shots != pb.Shots {
		t.Fatalf("shots: %d != %d", recon.Shots, pb.Shots)
	}
	a, b := Estimate(pb), Estimate(recon)
	if !reflect.DeepEqual(a.Ones, b.Ones) {
		t.Fatalf("marginal counts differ: %v vs %v", a.Ones, b.Ones)
	}
	if !reflect.DeepEqual(a.N11, b.N11) {
		t.Fatalf("joint counts differ: %v vs %v", a.N11, b.N11)
	}
}

// TestSparseAndDecay checks the thresholded representation and the
// distance-binned decay curve on a construction with one strong pair.
func TestSparseAndDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mo := zzModel{p: 0.02, q: 0.2}
	pb := genZZ(rng, 1, 1<<14, mo) // bits 0,1 correlated
	ext := genIndependent(rng, 2, 1<<14, 0.02)
	pb.Planes = append(pb.Planes, ext.Planes...) // bits 2,3 independent
	m := Estimate(pb)

	sp := m.Sparse(0.1)
	if len(sp) == 0 || sp[0].I != 0 || sp[0].J != 1 {
		t.Fatalf("Sparse(0.1) did not rank the correlated pair first: %+v", sp)
	}
	for _, ps := range sp[1:] {
		if ps.I == 0 && ps.J == 1 {
			continue
		}
		t.Errorf("Sparse(0.1) kept an uncorrelated pair: %+v", ps)
	}

	// Path-graph distances on 4 nodes: |i-j|.
	dist := make([][]int, 4)
	for i := range dist {
		dist[i] = make([]int, 4)
		for j := range dist[i] {
			dist[i][j] = int(math.Abs(float64(i - j)))
		}
	}
	bins := DecayByDistance(m, dist, 0)
	if len(bins) != 3 || bins[0].Distance != 1 || bins[0].Pairs != 3 {
		t.Fatalf("unexpected decay bins: %+v", bins)
	}
	if bins[0].MeanAbsCorr <= bins[2].MeanAbsCorr {
		t.Errorf("distance-1 bin (%v) not above distance-3 bin (%v) despite the planted pair",
			bins[0].MeanAbsCorr, bins[2].MeanAbsCorr)
	}
	capped := DecayByDistance(m, dist, 2)
	if len(capped) != 2 {
		t.Errorf("maxDist=2 kept %d bins, want 2", len(capped))
	}
}

func TestJointCountsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := Estimate(genIndependent(rng, 4, 300, 0.4))
	a, b := m.JointCounts(1, 3), m.JointCounts(3, 1)
	// Swapping the pair transposes the table: n01 <-> n10.
	if a[0] != b[0] || a[3] != b[3] || a[1] != b[2] || a[2] != b[1] {
		t.Fatalf("JointCounts not transpose-consistent: %v vs %v", a, b)
	}
	total := a[0] + a[1] + a[2] + a[3]
	if total != m.Shots {
		t.Fatalf("joint counts sum to %d, want %d", total, m.Shots)
	}
}

// BenchmarkCorrelations127Q measures the correlation-spectroscopy
// estimator at full scale: the two-point covariance/correlation matrix of
// 127 outcome planes (8001 pairs) over 10^4 shots, reported as pairs/s.
// "packed" is Estimate alone; "packed+se" also runs the on-demand
// jackknife for both standard errors of every pair, the work the
// per-shot reference "scalar" does eagerly, so their pairs/s ratio is the
// word-level speedup on this machine.
func BenchmarkCorrelations127Q(b *testing.B) {
	const (
		n     = 127
		shots = 10_000
	)
	rng := rand.New(rand.NewSource(9))
	pb := sim.NewPackedBits(n, shots)
	for c := 0; c < n; c++ {
		for w := range pb.Planes[c] {
			// Sparse-ish flips (~6% rate), matching a weak-noise device.
			pb.Planes[c][w] = rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
	}
	pairs := float64(Pairs(n))
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := Estimate(pb); m.Shots != shots {
				b.Fatal("wrong shot count")
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	})
	b.Run("packed+se", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := Estimate(pb)
			for p := 0; p < n; p++ {
				for q := p + 1; q < n; q++ {
					seSink += m.SECovAt(p, q) + m.SECorrAt(p, q)
				}
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m, _, _ := estimateScalar(pb); m.Shots != shots {
				b.Fatal("wrong shot count")
			}
		}
		b.ReportMetric(pairs*float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
	})
}

var seSink float64
