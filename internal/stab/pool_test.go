package stab

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/pass"
	"casq/internal/sim"
)

// TestPooledOpsConcurrent runs Expectations, CountsPacked and Info on
// different circuits from several goroutines at once, so each compile
// takes an op stream and compile scratch (crosstalk table, lowered layer,
// phase accumulators) that another call just handed back to its pool.
// The circuits span two backends, and one adds a zero-rate crosstalk edge
// for an RZZ on an uncoupled pair, so the scratch is reused across edge
// and qubit counts. Some runs fill 64-shot blocks, whose plan reads the
// ops before the shot loop; the others run only the scalar tail, which
// reads them during it. Every result must equal its serial run bit for
// bit.
func TestPooledOpsConcurrent(t *testing.T) {
	type testCircuit struct {
		dev *device.Device
		c   *circuit.Circuit
		obs []sim.ObsSpec
	}
	var circuits []testCircuit
	for _, b := range []struct {
		name  string
		seeds int64
		obs   []sim.ObsSpec
	}{
		{"eagle127", 3, []sim.ObsSpec{{0: 'Z'}, {5: 'Z', 6: 'Z'}, {64: 'X', 100: 'Y'}}},
		{"heavyhex29", 2, []sim.ObsSpec{{0: 'Z'}, {5: 'Z', 6: 'Z'}, {20: 'X', 28: 'Y'}}},
	} {
		dev, err := device.NewBackend(b.name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= b.seeds; seed++ {
			c := randomCliffordCircuit(dev, rand.New(rand.NewSource(seed)), 4, false)
			out, _, err := pass.CADD().Apply(dev, rand.New(rand.NewSource(seed)), c)
			if err != nil {
				t.Fatal(err)
			}
			circuits = append(circuits, testCircuit{dev, out, b.obs})
		}
	}
	// An RZZ(pi/2) on the uncoupled pair (0, 28) of heavyhex29.
	dev := circuits[len(circuits)-1].dev
	c := randomCliffordCircuit(dev, rand.New(rand.NewSource(3)), 4, false)
	c.Layers = slices.Insert(c.Layers, 2, circuit.Layer{Kind: circuit.TwoQubitLayer})
	c.Layers[2].RZZ(0, 28, math.Pi/2)
	out, _, err := pass.Twirled().Apply(dev, rand.New(rand.NewSource(3)), c)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sim.NewCrosstalk(dev, out).Edges); n != len(dev.Edges)+len(dev.NNNEdges)+1 {
		t.Fatalf("uncoupled RZZ fixture: %d crosstalk edges, want the device's %d plus one", n, len(dev.Edges)+len(dev.NNNEdges))
	}
	circuits = append(circuits, testCircuit{dev, out, circuits[len(circuits)-1].obs})

	engine := func(dev *device.Device, shots int) *Engine {
		cfg := sim.DefaultConfig()
		cfg.Shots, cfg.Workers = shots, 2
		return New(dev, cfg)
	}
	type job struct {
		name string
		run  func() (any, error)
	}
	var jobs []job
	for i, tc := range circuits {
		for _, shots := range []int{3, 70} {
			e := engine(tc.dev, shots)
			jobs = append(jobs,
				job{fmt.Sprintf("circuit %d: Expectations at %d shots", i, shots),
					func() (any, error) { return e.Expectations(tc.c, tc.obs) }},
				job{fmt.Sprintf("circuit %d: CountsPacked at %d shots", i, shots),
					func() (any, error) { return e.CountsPacked(tc.c) }})
		}
		e := engine(tc.dev, 1)
		jobs = append(jobs, job{fmt.Sprintf("circuit %d: Info", i),
			func() (any, error) { return e.Info(tc.c) }})
	}
	want := make([]any, len(jobs))
	for j, jb := range jobs {
		var err error
		if want[j], err = jb.run(); err != nil {
			t.Fatalf("%s: %v", jb.name, err)
		}
	}
	const goroutines = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				j := (k + g*len(jobs)/goroutines) % len(jobs)
				got, err := jobs[j].run()
				if err != nil {
					t.Errorf("%s: %v", jobs[j].name, err)
					continue
				}
				if !reflect.DeepEqual(got, want[j]) {
					t.Errorf("%s: concurrent result differs from the serial run", jobs[j].name)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCompileSeesDeviceMutation is the stab twin of sim's
// TestCompileCacheDetectsDeviceMutation. A caller may write the device's
// exported calibration maps between runs, so after every ZZ rate triples
// in place, compiling the same circuit again on the same engine must build
// the program a fresh engine builds, and not the one before: no table may
// be kept across compiles by device.
func TestCompileSeesDeviceMutation(t *testing.T) {
	dev, err := device.NewBackend("grid16")
	if err != nil {
		t.Fatal(err)
	}
	c := randomCliffordCircuit(dev, rand.New(rand.NewSource(1)), 4, false)
	out, _, err := pass.Twirled().Apply(dev, rand.New(rand.NewSource(1)), c)
	if err != nil {
		t.Fatal(err)
	}
	programHash := func(e *Engine) string {
		p, err := e.compile(out)
		if err != nil {
			t.Fatal(err)
		}
		defer p.release()
		h := sha256.New()
		hashProgram(h, p)
		return hex.EncodeToString(h.Sum(nil))
	}
	e := New(dev, sim.DefaultConfig())
	before := programHash(e)
	for k := range dev.ZZ {
		dev.ZZ[k] *= 3
	}
	after := programHash(e)
	if after == before {
		t.Error("tripled ZZ rates left the compiled program unchanged")
	}
	if fresh := programHash(New(dev, sim.DefaultConfig())); after != fresh {
		t.Errorf("engine compiled %s after the recalibration, a fresh engine %s", after, fresh)
	}
}
