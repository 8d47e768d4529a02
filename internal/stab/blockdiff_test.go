// Differential pinning of the bit-plane batched path against the
// all-scalar reference path (export_test.go): same compiled circuits,
// same devices, only the shot axis differs. Two contracts are pinned
// here: statistical agreement (the two samplers draw from the same
// derived channel distributions, so marginals and expectations agree
// within sampling tolerance) and bit-identity of the batched path with
// itself across worker counts.
package stab_test

import (
	"math"
	"math/rand"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/pass"
	"casq/internal/sim"
	"casq/internal/stab"
)

// compiledFor compiles the circuit through a pipeline with a fixed rng
// seed, so block and scalar engines see the identical op stream.
func compiledFor(t *testing.T, dev *device.Device, pl pass.Pipeline, c *circuit.Circuit, seed int64) *circuit.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out, _, err := pl.Apply(dev, rng, c)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// largeAngleDevice is the CA-EC large-angle calibration from
// TestDifferentialCAECLargeAngles: ZZ 90-160 kHz plus a 230 kHz
// control-control collision, the regime where compensation angles exceed
// pi/4.
func largeAngleDevice() *device.Device {
	opts := device.DefaultOptions()
	opts.Seed = 47
	opts.ZZMin, opts.ZZMax = 90e3, 160e3
	opts.ZZOverride = []device.EdgeRate{{A: 1, B: 2, Hz: 230e3}}
	return device.NewHeavyHexFragment(opts)
}

func stabEngine(dev *device.Device, shots, workers int) *stab.Engine {
	cfg := sim.DefaultConfig()
	cfg.Shots = shots
	cfg.Workers = workers
	cfg.Seed = 11
	return stab.New(dev, cfg)
}

// TestBlockVsScalarExpectations pins the batched path against the scalar
// reference on the 6-qubit hex fragment (twirled and CA-EC, including the
// large-angle CA-EC calibration) and the 10-qubit layer-fidelity backend:
// both sample the same derived channels, so expectations must agree within
// the package's differential tolerance.
func TestBlockVsScalarExpectations(t *testing.T) {
	hex := device.NewHeavyHexFragment(device.DefaultOptions())
	lf10, err := device.NewBackend("layerfid10")
	if err != nil {
		t.Fatal(err)
	}
	layer10 := func() *circuit.Layer {
		l := &circuit.Layer{Kind: circuit.TwoQubitLayer}
		l.ECR(1, 0)
		l.ECR(2, 3)
		l.ECR(7, 6)
		return l
	}
	const tol = 0.06
	for _, tc := range []struct {
		name string
		dev  *device.Device
		pl   pass.Pipeline
		c    *circuit.Circuit
		obs  []sim.ObsSpec
	}{
		{"hex-twirled", hex, pass.Twirled(), lfCircuit(6, []int{0, 2}, hexLayer, 4),
			[]sim.ObsSpec{{0: 'X'}, {2: 'X'}, {4: 'Z'}, {5: 'Z'}}},
		{"hex-ca-ec", hex, pass.CAEC(), lfCircuit(6, []int{0, 2}, hexLayer, 4),
			[]sim.ObsSpec{{0: 'X'}, {2: 'X'}, {4: 'Z'}, {5: 'Z'}}},
		{"large-angle-ca-ec", largeAngleDevice(), pass.CAEC(), lfCircuit(6, []int{0, 2}, hexLayer, 4),
			[]sim.ObsSpec{{0: 'X'}, {2: 'X'}, {4: 'Z'}, {5: 'Z'}}},
		{"layerfid10-twirled", lf10, pass.Twirled(), lfCircuit(10, []int{1, 2, 7}, layer10, 2),
			[]sim.ObsSpec{{1: 'X'}, {2: 'X'}, {7: 'X'}, {5: 'Z'}, {9: 'Z'}}},
	} {
		compiled := compiledFor(t, tc.dev, tc.pl, tc.c, 23)
		const shots = 6000
		blockVals, err := stabEngine(tc.dev, shots, 0).Expectations(compiled, tc.obs)
		if err != nil {
			t.Fatalf("%s block: %v", tc.name, err)
		}
		scalarVals, err := stab.ScalarExpectations(stabEngine(tc.dev, shots, 0), compiled, tc.obs)
		if err != nil {
			t.Fatalf("%s scalar: %v", tc.name, err)
		}
		for j := range tc.obs {
			if d := math.Abs(blockVals[j] - scalarVals[j]); d > tol {
				t.Errorf("%s obs %d: block %.4f vs scalar %.4f (|diff| %.4f > %.2f)",
					tc.name, j, blockVals[j], scalarVals[j], d, tol)
			}
		}
	}
}

// TestBlockVsScalarCountsMarginals pins sampled bitstring marginals
// between the two shot paths on a measured twirled circuit.
func TestBlockVsScalarCountsMarginals(t *testing.T) {
	dev := device.NewHeavyHexFragment(device.DefaultOptions())
	c := lfCircuit(6, []int{0, 2}, hexLayer, 2)
	c.NCBits = 6
	ml := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < 6; q++ {
		ml.Measure(q, q)
	}
	compiled := compiledFor(t, dev, pass.Twirled(), c, 29)
	const shots = 8000
	blockRes, err := stabEngine(dev, shots, 0).Counts(compiled)
	if err != nil {
		t.Fatal(err)
	}
	scalarRes, err := stab.ScalarCounts(stabEngine(dev, shots, 0), compiled)
	if err != nil {
		t.Fatal(err)
	}
	if blockRes.Shots != shots || scalarRes.Shots != shots {
		t.Fatalf("shot totals: block %d scalar %d, want %d", blockRes.Shots, scalarRes.Shots, shots)
	}
	const tol = 0.05
	for q := 0; q < 6; q++ {
		pattern := ""
		for i := 0; i < q; i++ {
			pattern += "x"
		}
		pattern += "1"
		pb, ps := blockRes.Probability(pattern), scalarRes.Probability(pattern)
		if d := math.Abs(pb - ps); d > tol {
			t.Errorf("qubit %d marginal: block %.4f vs scalar %.4f (|diff| %.4f > %.2f)", q, pb, ps, d, tol)
		}
	}
}

// TestBlockBitIdentityAcrossWorkers pins the batched path's determinism
// contract: expectations and counts are bit-identical for worker counts
// 1, 4, and 16 — on the plain hex fragment and on the CA-EC large-angle
// calibration — at a shot count that exercises both full blocks and the
// scalar remainder tail.
func TestBlockBitIdentityAcrossWorkers(t *testing.T) {
	const shots = 1030 // 16 full blocks + 6 tail shots
	for _, tc := range []struct {
		name string
		dev  *device.Device
		pl   pass.Pipeline
	}{
		{"hex-twirled", device.NewHeavyHexFragment(device.DefaultOptions()), pass.Twirled()},
		{"large-angle-ca-ec", largeAngleDevice(), pass.CAEC()},
	} {
		c := lfCircuit(6, []int{0, 2}, hexLayer, 4)
		compiled := compiledFor(t, tc.dev, tc.pl, c, 31)
		obs := []sim.ObsSpec{{0: 'X'}, {2: 'X'}, {4: 'Z'}}
		refVals, err := stabEngine(tc.dev, shots, 1).Expectations(compiled, obs)
		if err != nil {
			t.Fatal(err)
		}
		mc := lfCircuit(6, []int{0, 2}, hexLayer, 2)
		mc.NCBits = 6
		ml := mc.AddLayer(circuit.MeasureLayer)
		for q := 0; q < 6; q++ {
			ml.Measure(q, q)
		}
		mcompiled := compiledFor(t, tc.dev, tc.pl, mc, 37)
		refCounts, err := stabEngine(tc.dev, shots, 1).Counts(mcompiled)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 16} {
			vals, err := stabEngine(tc.dev, shots, workers).Expectations(compiled, obs)
			if err != nil {
				t.Fatal(err)
			}
			for j := range vals {
				if vals[j] != refVals[j] {
					t.Errorf("%s workers=%d obs %d: %v != %v (not bit-identical)",
						tc.name, workers, j, vals[j], refVals[j])
				}
			}
			res, err := stabEngine(tc.dev, shots, workers).Counts(mcompiled)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Counts) != len(refCounts.Counts) {
				t.Fatalf("%s workers=%d: counts key sets differ", tc.name, workers)
			}
			for k, v := range refCounts.Counts {
				if res.Counts[k] != v {
					t.Errorf("%s workers=%d: counts[%s] = %d, want %d", tc.name, workers, k, res.Counts[k], v)
				}
			}
		}
	}
}

// TestBlockTailMatchesScalarEngine pins the remainder-tail contract: for
// shot counts below one block, the batched path runs the scalar reference
// frames with the scalar seeding, so Counts must be IDENTICAL (not just
// statistically close) to the all-scalar reference path's.
func TestBlockTailMatchesScalarEngine(t *testing.T) {
	dev := device.NewHeavyHexFragment(device.DefaultOptions())
	c := lfCircuit(6, []int{0, 2}, hexLayer, 2)
	c.NCBits = 6
	ml := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < 6; q++ {
		ml.Measure(q, q)
	}
	compiled := compiledFor(t, dev, pass.Twirled(), c, 41)
	const shots = 63 // all tail, no full block
	blockRes, err := stabEngine(dev, shots, 0).Counts(compiled)
	if err != nil {
		t.Fatal(err)
	}
	scalarRes, err := stab.ScalarCounts(stabEngine(dev, shots, 0), compiled)
	if err != nil {
		t.Fatal(err)
	}
	if len(blockRes.Counts) != len(scalarRes.Counts) {
		t.Fatalf("tail-only counts diverge: %v vs %v", blockRes.Counts, scalarRes.Counts)
	}
	for k, v := range scalarRes.Counts {
		if blockRes.Counts[k] != v {
			t.Errorf("tail-only counts[%s] = %d, want %d (must be bit-identical)", k, blockRes.Counts[k], v)
		}
	}
}
