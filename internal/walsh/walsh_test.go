package walsh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSignsBasics(t *testing.T) {
	if got := Signs(0, 4); got[0] != 1 || got[3] != 1 {
		t.Error("row 0 must be all +1")
	}
	row1 := Signs(1, 4)
	want := []int{1, -1, 1, -1}
	for i := range want {
		if row1[i] != want[i] {
			t.Fatalf("row 1 = %v", row1)
		}
	}
}

// signIntegral returns the integral of the sign function of sequence k over
// a unit window; it is 0 for all k >= 1.
func signIntegral(k, nBins int) float64 {
	s := Signs(k, nBins)
	sum := 0
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(nBins)
}

func TestBalancedRows(t *testing.T) {
	// Every row k >= 1 integrates to zero: the condition for single-qubit Z
	// suppression.
	for _, nb := range []int{4, 8, 16} {
		for k := 1; k < nb; k++ {
			if v := signIntegral(k, nb); v != 0 {
				t.Errorf("row %d on %d bins has integral %v", k, nb, v)
			}
		}
	}
}

func TestPairwiseOrthogonality(t *testing.T) {
	// Distinct rows have zero product integral: the pairwise ZZ suppression
	// condition of paper Sec. III C ("zero inner product between any two
	// rows").
	nb := 16
	for a := 0; a < nb; a++ {
		for b := 0; b < nb; b++ {
			v := PairIntegral(a, b, nb)
			if a == b && math.Abs(v-1) > 1e-12 {
				t.Errorf("row %d self-integral %v", a, v)
			}
			if a != b && math.Abs(v) > 1e-12 {
				t.Errorf("rows %d,%d not orthogonal: %v", a, b, v)
			}
		}
	}
}

func TestPulseTimesFrameRestored(t *testing.T) {
	// Every sequence must use an even number of pulses so the logical frame
	// is restored at the window end.
	for k := 1; k < 16; k++ {
		times := PulseTimes(k, 1000, 16)
		if len(times)%2 != 0 {
			t.Errorf("row %d has odd pulse count %d", k, len(times))
		}
		for _, tm := range times {
			if tm < 0 || tm > 1000 {
				t.Errorf("row %d pulse at %v outside window", k, tm)
			}
		}
	}
}

func TestPulseTimesReconstructSigns(t *testing.T) {
	// Toggling +1/-1 at each pulse time must reproduce the sign pattern.
	for k := 0; k < 8; k++ {
		nb := 8
		times := PulseTimes(k, float64(nb), nb)
		signs := Signs(k, nb)
		cur := 1
		ti := 0
		for bin := 0; bin < nb; bin++ {
			mid := float64(bin) + 0.5
			for ti < len(times) && times[ti] <= mid {
				cur = -cur
				ti++
			}
			if cur != signs[bin] {
				t.Fatalf("row %d: reconstructed sign at bin %d = %d, want %d", k, bin, cur, signs[bin])
			}
		}
	}
}

func TestKnownPulsePositions(t *testing.T) {
	// The mid-flip row (nb/2) pulses at T/2 and T; the quarter row pulses at
	// T/4 and 3T/4 — the two sequences of paper Fig. 3 cases II/III.
	T := 800.0
	mid := PulseTimes(4, T, 8)
	if len(mid) != 2 || mid[0] != T/2 || mid[1] != T {
		t.Errorf("row 4 pulses %v", mid)
	}
	quarter := PulseTimes(6, T, 8)
	if len(quarter) != 2 || quarter[0] != T/4 || quarter[1] != 3*T/4 {
		t.Errorf("row 6 pulses %v", quarter)
	}
}

func TestPalette(t *testing.T) {
	pal := Palette(8)
	if len(pal) != 8 || pal[0] != 0 {
		t.Fatalf("palette %v", pal)
	}
	// Color 1 must be the single mid-window flip (the ECR echo pattern).
	if pal[1] != 4 {
		t.Errorf("palette[1] = %d, want 4 (mid flip on 8 bins)", pal[1])
	}
	// Non-decreasing pulse count.
	nb := MinBins(7)
	prev := 0
	for _, row := range pal {
		pc := PulseCount(row, nb)
		if pc < prev {
			t.Errorf("palette not sorted by pulse count: %v", pal)
		}
		prev = pc
	}
}

func TestMinBins(t *testing.T) {
	cases := map[int]int{0: 1, 1: 2, 2: 4, 3: 4, 4: 8, 7: 8, 8: 16}
	for k, want := range cases {
		if got := MinBins(k); got != want {
			t.Errorf("MinBins(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestOrthogonalityProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		nb := 32
		ka, kb := int(a)%nb, int(b)%nb
		v := PairIntegral(ka, kb, nb)
		if ka == kb {
			return math.Abs(v-1) < 1e-12
		}
		return math.Abs(v) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
