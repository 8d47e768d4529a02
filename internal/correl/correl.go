// Package correl is the error-correlation spectroscopy estimator: it turns
// packed per-shot outcome planes (sim.PackedBits, bit 1 = "this shot's
// outcome flipped on this qubit") into the two-point covariance and
// correlation matrix of outcome flips across every qubit pair — the object
// Edmunds et al. measure directly and the paper's context-aware passes are
// designed to suppress.
//
// The estimator never unpacks shots to bytes. For a pair (i, j) the two
// sufficient statistics are popcount reductions over 64-shot words:
//
//	n1[i]      = popcount(P_i)            one flip count per plane
//	n11(i,j)   = popcount(P_i AND P_j)    joint flips
//
// from which Cov(i,j) = n11/S - p_i p_j and Corr = Cov/sqrt(p_i q_i p_j q_j).
// Standard errors come from a delete-one-block jackknife over the 64-shot
// words (the shot-resampling granularity the bit-plane layout gives for
// free), so every reported covariance carries an honest uncertainty and
// tests can pin estimates with k-sigma bounds instead of eyeballed
// tolerances. The jackknife costs one pass over the words per pair, and a
// figure reads an SE for only the few pairs above its reporting floor, so
// the Matrix keeps the planes and runs it for one pair when asked.
package correl

import (
	"math"
	"math/bits"
	"sort"

	"casq/internal/sim"
)

// Matrix is the estimated two-point flip-correlation structure over n
// classical bits. Pair-indexed slices are packed upper-triangular (i < j)
// via PairIndex; for n = 127 that is 8001 pairs.
type Matrix struct {
	N     int // classical bits (qubits)
	Shots int

	// Ones is the per-bit flip count; P the per-bit flip rate Ones/Shots.
	Ones []int
	P    []float64
	// N11 is the per-pair joint flip count (both bits 1 in one shot).
	N11 []int
	// Cov and Corr are the per-pair covariance and Pearson correlation of
	// the two flip indicators. SECovAt and SECorrAt give their standard
	// errors.
	Cov, Corr []float64

	// words is the 64-shot word count of the record; planes holds a copy
	// of the outcome planes, bit i's words at [i*words, (i+1)*words),
	// with the bits past Shots cleared.
	words  int
	planes []uint64
}

// PairIndex maps a pair i < j on n bits to its packed upper-triangular
// index. Callers must order the pair (swap first if i > j).
func PairIndex(n, i, j int) int {
	return i*n - i*(i+1)/2 + (j - i - 1)
}

// Pairs returns the number of unordered pairs on n bits.
func Pairs(n int) int { return n * (n - 1) / 2 }

// CovAt returns the flip covariance of the pair (order-free).
func (m Matrix) CovAt(i, j int) float64 { return m.pairVal(m.Cov, i, j) }

// CorrAt returns the flip correlation of the pair (order-free).
func (m Matrix) CorrAt(i, j int) float64 { return m.pairVal(m.Corr, i, j) }

// SECovAt returns the delete-one-block jackknife standard error of CovAt
// (order-free). It is zero when the record holds a single 64-shot word:
// one block cannot be resampled.
func (m Matrix) SECovAt(i, j int) float64 { return m.jackknife(i, j, covOf) }

// SECorrAt returns the delete-one-block jackknife standard error of
// CorrAt, on the same terms as SECovAt.
func (m Matrix) SECorrAt(i, j int) float64 { return m.jackknife(i, j, corrOf) }

// plane returns bit i's masked outcome words.
func (m Matrix) plane(i int) []uint64 { return m.planes[i*m.words : (i+1)*m.words] }

// jackknife runs the delete-one-word jackknife of stat for one pair: each
// word's leave-one-out estimate theta_w, their mean, and
// sqrt((W-1)/W * sum (theta_w - mean)^2), in that float order.
func (m Matrix) jackknife(i, j int, stat func(n11, oi, oj, S int) float64) float64 {
	if i == j || m.words < 2 {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	pi, pj := m.plane(i), m.plane(j)
	n11 := m.N11[PairIndex(m.N, i, j)]
	theta := make([]float64, m.words)
	var mean float64
	for w := range theta {
		oi := m.Ones[i] - bits.OnesCount64(pi[w])
		oj := m.Ones[j] - bits.OnesCount64(pj[w])
		theta[w] = stat(n11-bits.OnesCount64(pi[w]&pj[w]), oi, oj, m.Shots-wordShots(m.Shots, w))
		mean += theta[w]
	}
	W := float64(m.words)
	mean /= W
	var v float64
	for _, t := range theta {
		d := t - mean
		v += d * d
	}
	return math.Sqrt((W - 1) / W * v)
}

func (m Matrix) pairVal(s []float64, i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return s[PairIndex(m.N, i, j)]
}

// JointCounts returns the 2x2 contingency table of the pair as
// [n00, n01, n10, n11], where the first index is bit i's value — the
// input to a chi-square goodness-of-fit against model probabilities.
func (m Matrix) JointCounts(i, j int) [4]int {
	if i > j {
		i, j = j, i
		n11 := m.N11[PairIndex(m.N, i, j)]
		n01 := m.Ones[i] - n11 // i now holds the original second bit
		n10 := m.Ones[j] - n11
		return [4]int{m.Shots - n11 - n01 - n10, n01, n10, n11}
	}
	n11 := m.N11[PairIndex(m.N, i, j)]
	n10 := m.Ones[i] - n11
	n01 := m.Ones[j] - n11
	return [4]int{m.Shots - n11 - n10 - n01, n01, n10, n11}
}

// PairStat is one thresholded pair of the sparse representation.
type PairStat struct {
	I    int     `json:"i"`
	J    int     `json:"j"`
	Corr float64 `json:"corr"`
	Cov  float64 `json:"cov"`
	// SE is the jackknife standard error of Corr.
	SE float64 `json:"se"`
}

// Sparse returns the pairs with |Corr| >= minAbsCorr, sorted by
// descending |Corr| (ties by pair order) — the thresholded representation
// that keeps a 127-qubit matrix (8001 pairs) reportable: under weak noise
// almost every pair sits below the statistical floor.
func (m Matrix) Sparse(minAbsCorr float64) []PairStat {
	var out []PairStat
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			k := PairIndex(m.N, i, j)
			if math.Abs(m.Corr[k]) >= minAbsCorr {
				out = append(out, PairStat{I: i, J: j, Corr: m.Corr[k], Cov: m.Cov[k], SE: m.SECorrAt(i, j)})
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].Corr) > math.Abs(out[b].Corr)
	})
	return out
}

// DecayBin is the mean absolute correlation over all pairs at one coupling-
// graph distance.
type DecayBin struct {
	Distance    int     `json:"distance"`
	MeanAbsCorr float64 `json:"mean_abs_corr"`
	Pairs       int     `json:"pairs"`
}

// DecayByDistance bins |Corr| by pair distance: dist[i][j] is the graph
// distance between bits i and j (negative = unreachable, skipped), and
// maxDist > 0 caps the reported bins. The result is ascending in distance
// with only populated bins present — the correlation-decay curve of the
// spectroscopy figures.
func DecayByDistance(m Matrix, dist [][]int, maxDist int) []DecayBin {
	sums := map[int]*DecayBin{}
	for i := 0; i < m.N; i++ {
		for j := i + 1; j < m.N; j++ {
			d := dist[i][j]
			if d < 1 || (maxDist > 0 && d > maxDist) {
				continue
			}
			b := sums[d]
			if b == nil {
				b = &DecayBin{Distance: d}
				sums[d] = b
			}
			b.MeanAbsCorr += math.Abs(m.Corr[PairIndex(m.N, i, j)])
			b.Pairs++
		}
	}
	out := make([]DecayBin, 0, len(sums))
	for _, b := range sums {
		b.MeanAbsCorr /= float64(b.Pairs)
		out = append(out, *b)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Distance < out[b].Distance })
	return out
}

// blockWords returns the word count of a shot record.
func blockWords(shots int) int {
	return (shots + sim.ShotBlockSize - 1) / sim.ShotBlockSize
}

// wordMask returns the valid-bit mask of word w for the given shot count.
func wordMask(shots, w int) uint64 {
	if rem := shots - w*sim.ShotBlockSize; rem < sim.ShotBlockSize {
		return 1<<uint(rem) - 1
	}
	return ^uint64(0)
}

// wordShots returns the number of valid shots in word w.
func wordShots(shots, w int) int {
	if rem := shots - w*sim.ShotBlockSize; rem < sim.ShotBlockSize {
		return rem
	}
	return sim.ShotBlockSize
}

// Estimate computes the flip-correlation matrix from packed outcome
// planes by word-parallel popcount reductions: one AND+popcount per pair
// per 64 shots, never unpacking to per-shot bytes. Invalid bits beyond
// pb.Shots in the final word are masked out of every count. The matrix
// keeps a masked copy of the planes for SECovAt and SECorrAt.
func Estimate(pb sim.PackedBits) Matrix {
	n, S := len(pb.Planes), pb.Shots
	m := Matrix{
		N: n, Shots: S,
		Ones: make([]int, n),
		P:    make([]float64, n),
		N11:  make([]int, Pairs(n)),
		Cov:  make([]float64, Pairs(n)), Corr: make([]float64, Pairs(n)),
	}
	if n == 0 || S == 0 {
		return m
	}
	m.words = blockWords(S)
	m.planes = make([]uint64, n*m.words)
	for i, src := range pb.Planes {
		row := m.plane(i)
		for w := range row {
			row[w] = src[w] & wordMask(S, w)
			m.Ones[i] += bits.OnesCount64(row[w])
		}
		m.P[i] = float64(m.Ones[i]) / float64(S)
	}
	for i := 0; i < n; i++ {
		pi := m.plane(i)
		for j := i + 1; j < n; j++ {
			n11 := 0
			for w, x := range m.plane(j) {
				n11 += bits.OnesCount64(pi[w] & x)
			}
			k := PairIndex(n, i, j)
			m.N11[k] = n11
			m.Cov[k] = covOf(n11, m.Ones[i], m.Ones[j], S)
			m.Corr[k] = corrOf(n11, m.Ones[i], m.Ones[j], S)
		}
	}
	return m
}

// covOf is the plug-in covariance of two flip indicators from their
// sufficient statistics.
func covOf(n11, oi, oj, S int) float64 {
	if S == 0 {
		return 0
	}
	fS := float64(S)
	return float64(n11)/fS - (float64(oi)/fS)*(float64(oj)/fS)
}

// corrOf is the Pearson correlation; zero when either marginal is
// degenerate (flip rate exactly 0 or 1 leaves no variance to correlate).
func corrOf(n11, oi, oj, S int) float64 {
	if S == 0 || oi == 0 || oi == S || oj == 0 || oj == S {
		return 0
	}
	fS := float64(S)
	pi, pj := float64(oi)/fS, float64(oj)/fS
	return covOf(n11, oi, oj, S) / math.Sqrt(pi*(1-pi)*pj*(1-pj))
}

// PackedFromCounts expands a bitstring-counts map (sim.BitsKey layout:
// classical bit c at string position c) into packed planes over ncb bits,
// in sorted-key order. It is the bridge from engines that return only a
// counts map (the statevector kernel) into the packed estimator; the shot
// order is synthetic, so jackknife blocks resample sorted outcomes rather
// than true acquisition order — statistically equivalent for i.i.d. shots.
func PackedFromCounts(counts map[string]int, ncb int) sim.PackedBits {
	shots := 0
	keys := make([]string, 0, len(counts))
	for k, c := range counts {
		keys = append(keys, k)
		shots += c
	}
	sort.Strings(keys)
	pb := sim.NewPackedBits(ncb, shots)
	s := 0
	for _, k := range keys {
		for rep := 0; rep < counts[k]; rep++ {
			for c := 0; c < ncb && c < len(k); c++ {
				if k[c] == '1' {
					pb.Set(c, s, 1)
				}
			}
			s++
		}
	}
	return pb
}
