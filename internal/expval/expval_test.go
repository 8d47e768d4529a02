package expval

import (
	"math"
	"math/rand"
	"testing"

	"casq/internal/sim"
)

func res(counts map[string]int) sim.Result {
	shots := 0
	for _, n := range counts {
		shots += n
	}
	return sim.Result{Counts: counts, Shots: shots}
}

func TestCorrectReadoutIdentity(t *testing.T) {
	r := res(map[string]int{"00": 75, "11": 25})
	p, err := CorrectReadout(r, []int{0, 1}, "00", []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.75) > 1e-12 {
		t.Errorf("zero-error correction changed p: %v", p)
	}
}

func TestCorrectReadoutInvertsFlips(t *testing.T) {
	// Start from a known truth, apply symmetric flips, correct, recover.
	rng := rand.New(rand.NewSource(3))
	eps := []float64{0.03, 0.08}
	trueP := map[string]float64{"00": 0.6, "11": 0.4}
	counts := map[string]int{}
	n := 400000
	for i := 0; i < n; i++ {
		var bits [2]byte
		s := "11"
		if rng.Float64() < trueP["00"] {
			s = "00"
		}
		for k := 0; k < 2; k++ {
			bits[k] = s[k]
			if rng.Float64() < eps[k] {
				bits[k] = '0' + ('1' - bits[k])
			}
		}
		counts[string(bits[:])]++
	}
	r := res(counts)
	p, err := CorrectReadout(r, []int{0, 1}, "00", eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.6) > 0.01 {
		t.Errorf("corrected P(00) = %v, want 0.6", p)
	}
	p11, err := CorrectReadout(r, []int{0, 1}, "11", eps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p11-0.4) > 0.01 {
		t.Errorf("corrected P(11) = %v, want 0.4", p11)
	}
}

func TestCorrectReadoutRejectsBadInput(t *testing.T) {
	r := res(map[string]int{"0": 1})
	if _, err := CorrectReadout(r, []int{0}, "00", []float64{0}); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := CorrectReadout(r, []int{0}, "0", []float64{0.5}); err == nil {
		t.Error("uninvertible error rate not rejected")
	}
}
