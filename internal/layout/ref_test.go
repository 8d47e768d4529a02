package layout

import (
	"cmp"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
)

// connectedRegion grows a random connected region of size qubits on dev.
func connectedRegion(rng *rand.Rand, dev *device.Device, size int) []int {
	region := []int{rng.Intn(dev.NQubits)}
	in := map[int]bool{region[0]: true}
	for len(region) < size {
		var frontier []int
		for _, q := range region {
			for _, nb := range dev.Neighbors(q) {
				if !in[nb] {
					frontier = append(frontier, nb)
				}
			}
		}
		next := frontier[rng.Intn(len(frontier))]
		in[next] = true
		region = append(region, next)
	}
	return region
}

// randomCircuit builds a seeded circuit on n qubits: 1q layers, 2q
// layers of random disjoint pairs (mostly non-adjacent once placed, so
// routing inserts SWAP chains), empty 1q and 2q layers, a measurement of
// every qubit and a gate conditioned on a measured bit.
func randomCircuit(rng *rand.Rand, n int) *circuit.Circuit {
	c := circuit.New(n, n)
	for d := 0; d < 6; d++ {
		switch rng.Intn(5) {
		case 0:
			l := c.AddLayer(circuit.OneQubitLayer)
			for _, q := range rng.Perm(n)[:1+rng.Intn(n)] {
				if rng.Intn(2) == 0 {
					l.RZ(q, rng.Float64())
				} else {
					l.H(q)
				}
			}
		case 1:
			c.AddLayer(circuit.TwoQubitLayer)
		case 2:
			c.AddLayer(circuit.OneQubitLayer)
		default:
			l := c.AddLayer(circuit.TwoQubitLayer)
			p, k := rng.Perm(n), 2+rng.Intn(n-1)
			for i := 0; i+1 < k; i += 2 {
				if rng.Intn(2) == 0 {
					l.ECR(p[i], p[i+1])
				} else {
					l.RZZ(p[i], p[i+1], rng.Float64())
				}
			}
		}
	}
	m := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < n; q++ {
		m.Measure(q, q)
	}
	c.AddLayer(circuit.OneQubitLayer).CondX(0, 1, 1)
	return c
}

// TestRouteMatchesRemapThenRoute pins route, the one-copy remap-and-route
// that exact scoring and MapCircuit use, to the two-copy path it
// replaced, RouteCircuit(dev, Remap(c, f, dev.NQubits)), on seeded random
// circuits over heavyhex29 regions: the routed circuits must encode to
// the same JSON (empty layers included), with the same final positions,
// SWAP counts and errors, and route must neither change its input nor
// share memory with it.
func TestRouteMatchesRemapThenRoute(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	swaps, emptyLayers := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(8)
		sub, _, err := dev.Induced("sub", connectedRegion(rng, dev, n))
		if err != nil {
			t.Fatal(err)
		}
		c := randomCircuit(rng, n)
		f := rng.Perm(n)
		before, _ := json.Marshal(c)

		want, wantFinal, wantSwaps, wantErr := RouteCircuit(sub, Remap(c, f, sub.NQubits))
		got, gotFinal, gotSwaps, gotErr := route(sub, c, f)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: route error %v, reference %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		gotJSON, _ := json.Marshal(got)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("trial %d: routed circuit\n%s\nreference\n%s", trial, gotJSON, wantJSON)
		}
		if !slices.Equal(gotFinal, wantFinal) || gotSwaps != wantSwaps {
			t.Fatalf("trial %d: final %v with %d swaps, reference %v with %d",
				trial, gotFinal, gotSwaps, wantFinal, wantSwaps)
		}
		swaps += gotSwaps
		emptyLayers += strings.Count(string(gotJSON), `"Instrs":null`)
		for li := range got.Layers {
			for ii := range got.Layers[li].Instrs {
				in := &got.Layers[li].Instrs[ii]
				in.Qubits[0] = -1
				for pi := range in.Params {
					in.Params[pi] = math.NaN()
				}
				if in.Cond != nil {
					in.Cond.Bit = -1
				}
			}
		}
		if after, _ := json.Marshal(c); string(after) != string(before) {
			t.Fatalf("trial %d: route changed or shares memory with its input", trial)
		}
	}
	empty := circuit.New(4, 0)
	got, _, _, _ := route(dev, empty, []int{3, 2, 1, 0})
	want, _, _, _ := RouteCircuit(dev, Remap(empty, []int{3, 2, 1, 0}, dev.NQubits))
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("empty circuit routes to %s, reference %s", gotJSON, wantJSON)
	}
	if swaps == 0 || emptyLayers == 0 {
		t.Fatalf("fixture misses a path: %d SWAPs, %d empty routed layers", swaps, emptyLayers)
	}
}

// TestKeepBestMatchesSort checks the bounded top-K against a full sort by
// (prediction, index) with cmp.Compare's order, NaN first, over random
// predictions with many ties and some NaN.
func TestKeepBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		preds := make([]prediction, n)
		for i := range preds {
			y := float64(rng.Intn(8)) - 3
			switch rng.Intn(10) {
			case 0:
				y = math.NaN()
			case 1:
				y = math.Inf(1 - 2*rng.Intn(2))
			case 2:
				y = math.Copysign(0, -1)
			}
			preds[i] = prediction{i, y}
		}
		want := slices.Clone(preds)
		slices.SortFunc(want, func(a, b prediction) int {
			if c := cmp.Compare(a.y, b.y); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		k := 1 + rng.Intn(12)
		var got []prediction
		for _, p := range preds {
			got = keepBest(got, p, k)
		}
		want = want[:min(k, n)]
		if !slices.EqualFunc(got, want, func(a, b prediction) bool { return a.idx == b.idx }) {
			t.Fatalf("trial %d (k=%d): kept %v, full sort %v", trial, k, got, want)
		}
	}
}
