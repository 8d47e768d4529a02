package fitting

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLinearExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, err := Linear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Errorf("fit a=%v b=%v", a, b)
	}
}

func TestLinearDegenerate(t *testing.T) {
	if _, _, err := Linear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x not rejected")
	}
	if _, _, err := Linear([]float64{1}, []float64{2}); err == nil {
		t.Error("single point not rejected")
	}
}

func TestExpDecayExact(t *testing.T) {
	amp, lambda := 0.93, 0.85
	var xs, ys []float64
	for d := 0; d <= 10; d += 2 {
		xs = append(xs, float64(d))
		ys = append(ys, amp*math.Pow(lambda, float64(d)))
	}
	a, l, err := ExpDecay(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-amp) > 1e-9 || math.Abs(l-lambda) > 1e-9 {
		t.Errorf("fit A=%v lambda=%v", a, l)
	}
}

func TestExpDecaySkipsNonPositive(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 0.5, -0.01, 0.125}
	_, l, err := ExpDecay(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-0.5) > 0.1 {
		t.Errorf("lambda %v, want ~0.5", l)
	}
}

func TestExpDecayProperty(t *testing.T) {
	f := func(ai, li uint16) bool {
		amp := 0.5 + float64(ai%500)/1000 // [0.5, 1)
		lam := 0.5 + float64(li%499)/1000 // [0.5, 1)
		var xs, ys []float64
		for d := 1; d <= 8; d++ {
			xs = append(xs, float64(d))
			ys = append(ys, amp*math.Pow(lam, float64(d)))
		}
		a, l, err := ExpDecay(xs, ys)
		return err == nil && math.Abs(a-amp) < 1e-6 && math.Abs(l-lam) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestScaledIdealRecoversParameters(t *testing.T) {
	ideal := []float64{1, -0.8, 0.5, -0.9, 0.7}
	ds := []float64{1, 2, 3, 4, 5}
	amp, lambda := 0.95, 0.90
	meas := make([]float64, len(ideal))
	for i := range ideal {
		meas[i] = amp * math.Pow(lambda, ds[i]) * ideal[i]
	}
	a, l, rms, err := ScaledIdeal(ds, ideal, meas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-lambda) > 0.002 || math.Abs(a-amp) > 0.02 || rms > 0.01 {
		t.Errorf("fit A=%v lambda=%v rms=%v", a, l, rms)
	}
}

func TestSamplingOverhead(t *testing.T) {
	// Overhead = (A lambda^d)^-2.
	ov := SamplingOverhead(1, 0.9, 5)
	want := math.Pow(0.9, -10)
	if math.Abs(ov-want) > 1e-9 {
		t.Errorf("overhead %v, want %v", ov, want)
	}
	if !math.IsInf(SamplingOverhead(0, 0.9, 5), 1) {
		t.Error("zero amplitude should give infinite overhead")
	}
	// Paper cross-check: LF = 0.648 corresponds to gamma 2.38 under
	// gamma = LF^-2 (one layer).
	if g := SamplingOverhead(1, 0.648, 1); math.Abs(g-2.381) > 0.01 {
		t.Errorf("gamma(0.648) = %v", g)
	}
}
