package stab

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/pass"
	"casq/internal/sim"
)

// TestPooledOpsConcurrent runs Expectations, CountsPacked and Info on
// different 127-qubit circuits from several goroutines at once, so each
// compile takes an op stream that another call just handed back to the
// pool. Some runs fill 64-shot blocks, whose plan reads the ops before the
// shot loop; the others run only the scalar tail, which reads them during
// it. Every result must equal its serial run bit for bit.
func TestPooledOpsConcurrent(t *testing.T) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	var circuits []*circuit.Circuit
	for seed := int64(1); seed <= 3; seed++ {
		c := randomCliffordCircuit(dev, rand.New(rand.NewSource(seed)), 4, false)
		out, _, err := pass.CADD().ApplyForEngine(dev, rand.New(rand.NewSource(seed)), c, "stab")
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, out)
	}
	obs := []sim.ObsSpec{{0: 'Z'}, {5: 'Z', 6: 'Z'}, {64: 'X', 100: 'Y'}}
	engine := func(shots int) *Engine {
		cfg := sim.DefaultConfig()
		cfg.Shots, cfg.Workers = shots, 2
		return New(dev, cfg)
	}
	type job struct {
		name string
		run  func() (any, error)
	}
	var jobs []job
	for i, c := range circuits {
		for _, shots := range []int{3, 70} {
			e := engine(shots)
			jobs = append(jobs,
				job{fmt.Sprintf("circuit %d: Expectations at %d shots", i, shots),
					func() (any, error) { return e.Expectations(c, obs) }},
				job{fmt.Sprintf("circuit %d: CountsPacked at %d shots", i, shots),
					func() (any, error) { return e.CountsPacked(c) }})
		}
		e := engine(1)
		jobs = append(jobs, job{fmt.Sprintf("circuit %d: Info", i),
			func() (any, error) { return e.Info(c) }})
	}
	want := make([]any, len(jobs))
	for j, jb := range jobs {
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
