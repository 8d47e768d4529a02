package stab_test

import (
	"math"
	"math/rand"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/layerfid"
	"casq/internal/pass"
	"casq/internal/sim"
	"casq/internal/stab"
)

// BenchmarkStabBatch127Q/scalar/shots=1e4 runs the all-scalar reference
// path on the root package's BenchmarkStabBatch127Q workload (a twirled
// depth-4 ECR tiling of eagle127); its shots/s next to the root series at
// shots=1e4 is the bit-plane batching speedup.
func BenchmarkStabBatch127Q(b *testing.B) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		b.Fatal(err)
	}
	layer := layerfid.TiledLayer(dev)
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for _, in := range layer.TwoQubitGates() {
		prep.H(in.Qubits[0])
	}
	for d := 0; d < 4; d++ {
		c.Layers = append(c.Layers, layer.Clone())
	}
	compiled, _, err := pass.Twirled().Apply(dev, rand.New(rand.NewSource(3)), c)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]sim.ObsSpec, 0, 8)
	for _, in := range layer.TwoQubitGates()[:8] {
		obs = append(obs, sim.ObsSpec{in.Qubits[0]: 'X'})
	}
	b.Run("scalar/shots=1e4", func(b *testing.B) {
		cfg := sim.DefaultConfig()
		cfg.Shots, cfg.Workers = 10_000, 1
		eng := stab.New(dev, cfg)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if vals, err := stab.ScalarExpectations(eng, compiled, obs); err != nil || math.IsNaN(vals[0]) {
				b.Fatal(vals, err)
			}
		}
		b.ReportMetric(float64(cfg.Shots)*float64(b.N)/b.Elapsed().Seconds(), "shots/s")
	})
}
