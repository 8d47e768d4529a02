// Package expval provides tensor-product readout-error inversion on top of
// raw measurement counts: the "readout correction" the paper applies before
// comparing suppression strategies.
package expval

import (
	"errors"

	"casq/internal/sim"
)

// CorrectReadout inverts independent symmetric per-bit assignment errors on
// a joint probability over the listed classical bits: for each bit with
// flip probability e, <Z> scales by 1/(1-2e), so the joint probability of a
// specific pattern is reconstructed from the corrected Z-moments,
// P(pattern) = 2^-k * sum over subsets S of prod_{i in S} z_i(pattern)
// * <prod_{i in S} Z_i>_corrected.
// errs[i] is the assignment error of bits[i]. Returns the corrected
// probability of the given pattern over `bits` ('0'/'1' per entry).
func CorrectReadout(res sim.Result, bits []int, pattern string, errs []float64) (float64, error) {
	if len(bits) != len(pattern) || len(bits) != len(errs) {
		return 0, errors.New("expval: bits/pattern/errs length mismatch")
	}
	if len(bits) > 16 {
		return 0, errors.New("expval: too many bits for moment inversion")
	}
	k := len(bits)
	total := 0.0
	for mask := 0; mask < 1<<k; mask++ {
		// Corrected moment of subset `mask`.
		m := momentOf(res, bits, mask)
		scale := 1.0
		signTarget := 1.0
		valid := true
		for i := 0; i < k; i++ {
			if mask&(1<<i) == 0 {
				continue
			}
			den := 1 - 2*errs[i]
			if den <= 0 {
				valid = false
				break
			}
			scale /= den
			if pattern[i] == '1' {
				signTarget = -signTarget
			}
		}
		if !valid {
			return 0, errors.New("expval: readout error >= 0.5 is uninvertible")
		}
		total += signTarget * m * scale
	}
	p := total / float64(int(1)<<k)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// momentOf returns the raw Z-moment <prod_{i in mask} Z_bits[i]> of the
// counts.
func momentOf(res sim.Result, bits []int, mask int) float64 {
	if res.Shots == 0 {
		return 0
	}
	s := 0
	for key, n := range res.Counts {
		z := 1
		for i, b := range bits {
			if mask&(1<<i) == 0 {
				continue
			}
			if b < len(key) && key[b] == '1' {
				z = -z
			}
		}
		s += z * n
	}
	return float64(s) / float64(res.Shots)
}
