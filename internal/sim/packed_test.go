package sim

import (
	"math/rand"
	"testing"
)

// TestPackedBitsAppendChainPopcounts is the correlation-popcount
// regression for Append tail masking: chained appends of records whose
// shot counts are not multiples of 64 — each operand carrying planted
// garbage beyond its last valid shot — must keep Ones and OnesParity totals
// exactly equal to a per-shot scalar rebuild. This is the exact class of
// bug the correl estimator's pair counts would silently absorb: a single
// leaked tail bit shifts every covariance downstream of it.
func TestPackedBitsAppendChainPopcounts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	chains := [][]int{
		{63, 1, 65},
		{5, 59, 64, 7},
		{1, 1, 1, 1, 1},
		{100, 29, 130, 3},
		{64, 63, 62, 61},
	}
	for _, chain := range chains {
		// Scalar reference: the concatenated bit sequences per plane.
		var ref [2][]int
		acc := NewPackedBits(2, 0)
		for _, shots := range chain {
			nxt := NewPackedBits(2, shots)
			for c := 0; c < 2; c++ {
				for s := 0; s < shots; s++ {
					v := rng.Intn(2)
					nxt.Set(c, s, v)
					ref[c] = append(ref[c], v)
				}
				// Plant garbage in the invalid region of the last word.
				if w := len(nxt.Planes[c]); w > 0 && shots%ShotBlockSize != 0 {
					nxt.Planes[c][w-1] |= ^uint64(0) << uint(shots%ShotBlockSize)
				}
			}
			acc = acc.Append(nxt)

			wantOnes := [2]int{}
			wantXor := 0
			for s := range ref[0] {
				wantOnes[0] += ref[0][s]
				wantOnes[1] += ref[1][s]
				wantXor += ref[0][s] ^ ref[1][s]
			}
			if acc.Shots != len(ref[0]) {
				t.Fatalf("chain %v: shots = %d, want %d", chain, acc.Shots, len(ref[0]))
			}
			for c := 0; c < 2; c++ {
				if got := acc.Ones(c); got != wantOnes[c] {
					t.Fatalf("chain %v after %d shots: Ones(%d) = %d, want %d (tail leak)",
						chain, acc.Shots, c, got, wantOnes[c])
				}
			}
			if got := acc.OnesParity([]int{0, 1}); got != wantXor {
				t.Fatalf("chain %v after %d shots: OnesParity(0,1) = %d, want %d (tail leak)",
					chain, acc.Shots, got, wantXor)
			}
			// Every accumulated bit must still be addressable per shot.
			for c := 0; c < 2; c++ {
				for s, want := range ref[c] {
					if acc.Bit(c, s) != want {
						t.Fatalf("chain %v: bit (%d,%d) = %d, want %d", chain, c, s, acc.Bit(c, s), want)
					}
				}
			}
		}
	}
}
