package circuit_test

import (
	"math/rand"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/layerfid"
	"casq/internal/pass"
	"casq/internal/twirl"
)

// TestValidateAllocatesOnce validates a compiled 127-qubit fig8 instance:
// a preparation layer and two copies of the tiled ECR layer, through the
// CA-DD pipeline with every qubit twirled, as the full-device
// layer-fidelity run compiles it. Validate allocates only its per-qubit
// stamp slice, however many layers and instructions the circuit holds.
func TestValidateAllocatesOnce(t *testing.T) {
	dev, err := device.NewBackend("eagle127")
	if err != nil {
		t.Fatal(err)
	}
	layer := layerfid.TiledLayer(dev)
	c := circuit.New(dev.NQubits, 0)
	prep := c.AddLayer(circuit.OneQubitLayer)
	for q := 0; q < dev.NQubits; q += 2 {
		prep.H(q)
	}
	c.Layers = append(c.Layers, layer.Clone(), layer.Clone())
	pl := pass.CADD().WithTwirlScope(twirl.AllQubits)
	out, _, err := pl.Apply(dev, rand.New(rand.NewSource(1)), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Layers) < 7 {
		t.Fatalf("compiled instance has %d layers, want the twirl layers around both ECR layers", len(out.Layers))
	}
	var verr error
	if a := testing.AllocsPerRun(20, func() { verr = out.Validate() }); a != 1 {
		t.Errorf("Validate on a %d-layer instance: %v allocations, want 1", len(out.Layers), a)
	}
	if verr != nil {
		t.Fatal(verr)
	}
}
