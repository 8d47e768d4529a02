package sim_test

import (
	"math"
	"runtime"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/models"
	"casq/internal/sched"
	"casq/internal/sim"
)

// The values below were produced by the pre-overhaul kernel (per-shot
// allocation, cmplx.Exp-per-amplitude diagonal flush, skip-scan Apply1Q/2Q,
// copy-per-observable eval) on the workloads of goldenCountsCircuit and
// BuildFloquetIsing(4, 2), DefaultConfig with Shots=128, Workers=1 on
// device.NewLine("golden", 4, DefaultOptions). They pin the overhaul:
// counts must match exactly (the RNG consumption per trajectory is
// unchanged and no sampled threshold sits within rounding distance of a
// probability), expectations within 1e-9 (the fused diagonal composes the
// same rotations with different rounding).
var goldenCounts = map[string]int{
	"0000": 14, "0001": 2, "0010": 12, "0011": 6,
	"0100": 6, "0101": 5, "0110": 5, "0111": 12,
	"1000": 7, "1001": 13, "1010": 14, "1011": 5,
	"1100": 7, "1101": 8, "1110": 10, "1111": 2,
}

var goldenExpVals = []float64{
	-0.92118524451463901, // <X0 X3>
	0.953125,             // <Z1>
	0,                    // <Y2>
}

func goldenDevice() *device.Device {
	return device.NewLine("golden", 4, device.DefaultOptions())
}

func goldenConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Shots = 128
	cfg.Workers = 1
	return cfg
}

func goldenCountsCircuit() *circuit.Circuit {
	c := circuit.New(4, 4)
	c.AddLayer(circuit.OneQubitLayer).H(0).H(2)
	c.AddLayer(circuit.TwoQubitLayer).ECR(0, 1)
	l := c.AddLayer(circuit.TwoQubitLayer)
	l.ECR(2, 3)
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{0}, Params: []float64{400}})
	l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{1}, Params: []float64{400}})
	c.AddLayer(circuit.OneQubitLayer).RZ(1, 0.3).X(0)
	m := c.AddLayer(circuit.MeasureLayer)
	m.Measure(0, 0)
	m.Measure(1, 1)
	m.Measure(2, 2)
	m.Measure(3, 3)
	return c
}

func TestGoldenCountsMatchPreOverhaulKernel(t *testing.T) {
	dev := goldenDevice()
	c := goldenCountsCircuit()
	sched.Schedule(c, dev)
	res, err := sim.New(dev, goldenConfig()).Counts(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shots != 128 {
		t.Fatalf("shots %d, want 128", res.Shots)
	}
	if len(res.Counts) != len(goldenCounts) {
		t.Errorf("distinct bitstrings %d, want %d", len(res.Counts), len(goldenCounts))
	}
	for bits, want := range goldenCounts {
		if got := res.Counts[bits]; got != want {
			t.Errorf("counts[%q] = %d, want %d (pre-overhaul kernel)", bits, got, want)
		}
	}
}

func TestGoldenExpectationsMatchPreOverhaulKernel(t *testing.T) {
	dev := goldenDevice()
	c := models.BuildFloquetIsing(4, 2)
	sched.Schedule(c, dev)
	obs := []sim.ObsSpec{{0: 'X', 3: 'X'}, {1: 'Z'}, {2: 'Y'}}
	vals, err := sim.New(dev, goldenConfig()).Expectations(c, obs)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range goldenExpVals {
		if math.Abs(vals[j]-want) > 1e-9 {
			t.Errorf("obs %d: %v, want %v within 1e-9 (pre-overhaul kernel)", j, vals[j], want)
		}
	}
}

// TestExpectationsBitIdenticalAcrossSimWorkers pins the tentpole guarantee
// at the simulator level: shot-level fan-out must not change a single bit
// of the output for any worker count.
func TestExpectationsBitIdenticalAcrossSimWorkers(t *testing.T) {
	dev := goldenDevice()
	c := models.BuildFloquetIsing(4, 2)
	sched.Schedule(c, dev)
	obs := []sim.ObsSpec{{0: 'X', 3: 'X'}, {1: 'Z'}, {2: 'Y'}}
	var ref []float64
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := goldenConfig()
		cfg.Workers = workers
		vals, err := sim.New(dev, cfg).Expectations(c, obs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = vals
			continue
		}
		for j := range vals {
			if vals[j] != ref[j] {
				t.Errorf("workers=%d: obs %d = %v, want bit-identical %v", workers, j, vals[j], ref[j])
			}
		}
	}
}

// TestCompileCacheDetectsDeviceMutation pins the rule both engines keep:
// a Runner keeps no compile across calls, so each call compiles from the
// device and the circuit as they are at that moment. A caller may write
// the device's exported calibration maps, or a circuit's instructions, in
// place between two calls on one Runner; the second call must give what a
// fresh Runner gives, not stale crosstalk physics or a stale gate.
func TestCompileCacheDetectsDeviceMutation(t *testing.T) {
	dev := goldenDevice()
	c := models.BuildFloquetIsing(4, 2)
	sched.Schedule(c, dev)
	cfg := sim.CoherentOnly(1)
	cfg.Workers = 1
	r := sim.New(dev, cfg)
	obs := []sim.ObsSpec{{0: 'X', 3: 'X'}}
	before, err := r.Expectations(c, obs)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache, then retune every ZZ rate in place.
	for e := range dev.ZZ {
		dev.ZZ[e] *= 3
	}
	after, err := r.Expectations(c, obs)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] == before[0] {
		t.Errorf("tripled ZZ rates left <X0X3> = %v unchanged: stale compile cache", after[0])
	}
	fresh, err := sim.New(dev, cfg).Expectations(c, obs)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != fresh[0] {
		t.Errorf("cached runner %v != fresh runner %v after device mutation", after[0], fresh[0])
	}

	// The circuit half: retune one RZ angle in place.
	rc := models.BuildFloquetIsing(4, 2)
	rc.AddLayer(circuit.OneQubitLayer).RZ(0, 0.4)
	sched.Schedule(rc, dev)
	before, err = r.Expectations(rc, obs)
	if err != nil {
		t.Fatal(err)
	}
	rz := &rc.Layers[len(rc.Layers)-1].Instrs[0]
	if rz.Gate != gates.RZ {
		t.Fatalf("last layer holds %s, want the RZ", rz.Gate)
	}
	rz.Params[0] = 1.3
	after, err = r.Expectations(rc, obs)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] == before[0] {
		t.Errorf("retuned RZ left <X0X3> = %v unchanged: stale compile", after[0])
	}
	fresh, err = sim.New(dev, cfg).Expectations(rc, obs)
	if err != nil {
		t.Fatal(err)
	}
	if after[0] != fresh[0] {
		t.Errorf("runner %v != fresh runner %v after circuit mutation", after[0], fresh[0])
	}
}

// TestObservableOutOfRangePanics pins loud failure for observables naming
// qubits beyond the register — including Z labels, which act diagonally
// and would otherwise silently evaluate as identity.
func TestObservableOutOfRangePanics(t *testing.T) {
	dev := goldenDevice()
	c := models.BuildFloquetIsing(4, 1)
	sched.Schedule(c, dev)
	cfg := sim.CoherentOnly(1)
	cfg.Workers = 1
	for _, o := range []sim.ObsSpec{{12: 'Z'}, {12: 'X'}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("observable %v on 4-qubit circuit did not panic", o)
				}
			}()
			_, _ = sim.New(dev, cfg).Expectations(c, []sim.ObsSpec{o})
		}()
	}
}

func TestCountsBitIdenticalAcrossSimWorkers(t *testing.T) {
	dev := goldenDevice()
	c := goldenCountsCircuit()
	sched.Schedule(c, dev)
	var ref map[string]int
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := goldenConfig()
		cfg.Workers = workers
		res, err := sim.New(dev, cfg).Counts(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res.Counts
			continue
		}
		if len(res.Counts) != len(ref) {
			t.Fatalf("workers=%d: counts keys differ", workers)
		}
		for bits, n := range ref {
			if res.Counts[bits] != n {
				t.Errorf("workers=%d: counts[%q] = %d, want %d", workers, bits, res.Counts[bits], n)
			}
		}
	}
}
