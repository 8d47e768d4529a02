package layout

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"testing"

	"casq/internal/circuit"
	"casq/internal/device"
)

// searchPin is the SHA-256 of every output TestSearchOutputsPinned hashes.
const searchPin = "1cbc2297ea16b9987862b7722edff2a7b561f643feb8442c74d3d5a21de1dd56"

// ringProbe is the 12-ring workload: three rounds of staggered ECRs around
// the cycle, so its interaction graph is the 12-cycle.
func ringProbe() *circuit.Circuit {
	n := 12
	c := circuit.New(n, 0)
	for s := 0; s < 3; s++ {
		l := c.AddLayer(circuit.TwoQubitLayer)
		for q := 2 * s; q < n; q += 6 {
			l.ECR(q, (q+1)%n)
		}
		l2 := c.AddLayer(circuit.TwoQubitLayer)
		for q := 2*s + 3; q < n+2*s; q += 6 {
			l2.ECR(q%n, (q+1)%n)
		}
	}
	return c
}

// starProbe couples qubit 0 to every other qubit, one ECR per layer. Its
// interaction graph is neither a path nor a cycle, so the search grows
// greedy candidates, and past degree three the router inserts SWAPs.
func starProbe(n int) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	for k := 1; k < n; k++ {
		c.AddLayer(circuit.TwoQubitLayer).ECR(0, k)
	}
	return c
}

func hashJSON(t *testing.T, h hash.Hash, v any) {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	h.Write([]byte{'\n'})
}

func hashInts(h hash.Hash, xs []int) {
	for _, x := range xs {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x)))
	}
	h.Write([]byte{0xff})
}

// TestSearchOutputsPinned pins the layout search end to end on three
// heavy-hex sizes: path probes (path enumeration), the 12-ring (cycle
// enumeration) and stars (greedy enumeration and routing), each with and
// without the surrogate. Per probe it hashes the placement, the search
// report less its timings and pool size, the routed circuit, and six
// drift decisions that reach the surrogate, exact and recompile tiers.
func TestSearchOutputsPinned(t *testing.T) {
	probes := []struct {
		name string
		c    *circuit.Circuit
	}{
		{"path2x3", PathProbe(2, 3)},
		{"path9x8", PathProbe(9, 8)},
		{"path16x32", PathProbe(16, 32)},
		{"ring12", ringProbe()},
		{"star4", starProbe(4)},
		{"star5", starProbe(5)},
		{"star7", starProbe(7)},
	}
	noSurrogate := DefaultOptions()
	noSurrogate.NoSurrogate = true
	drifts := []float64{0.02, 0.3, 1, 0.05, 0.6, 1}
	h := sha256.New()
	var cheap, exact, recompiled, routedSwaps int
	for _, backend := range []string{"heavyhex29", "heavyhex65", "heavyhex127"} {
		dev, err := device.NewBackend(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			for _, opts := range []Options{DefaultOptions(), noSurrogate} {
				m, err := NewMonitor(dev, p.c, MonitorOptions{Search: opts})
				if err != nil {
					t.Fatalf("%s %s: %v", backend, p.name, err)
				}
				pl, rep := m.Placement(), *m.Report()
				hashInts(h, pl.Phys)
				hashInts(h, pl.Region)
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(pl.Score)))
				rep.ElapsedMS, rep.CandidatesPerSec, rep.Workers = 0, 0, 0
				hashJSON(t, h, rep)
				hashJSON(t, h, rep.Model)
				routed, final, swaps, err := pl.MapCircuit(p.c)
				if err != nil {
					t.Fatalf("%s %s: %v", backend, p.name, err)
				}
				hashJSON(t, h, routed)
				hashInts(h, final)
				hashInts(h, []int{swaps})
				routedSwaps += swaps
				for i, mag := range drifts {
					d, err := m.Drift(int64(100+i), mag)
					if err != nil {
						t.Fatalf("%s %s drift %d: %v", backend, p.name, i, err)
					}
					hashJSON(t, h, d)
					switch {
					case d.Recompiled:
						recompiled++
					case d.ExactChecked:
						exact++
					default:
						cheap++
					}
				}
			}
		}
	}
	if cheap == 0 || exact == 0 || recompiled == 0 || routedSwaps == 0 {
		t.Errorf("pin misses a path: %d surrogate-only, %d exact, %d recompiled decisions, %d routed SWAPs",
			cheap, exact, recompiled, routedSwaps)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchPin {
		t.Errorf("search outputs hash to %s, want %s", got, searchPin)
	}
}
