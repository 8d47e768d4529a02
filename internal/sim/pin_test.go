package sim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/models"
	"casq/internal/pass"
	"casq/internal/sim"
)

// enginePin is the SHA-256 of the 64-shot counts and the expectation bits
// that TestStatevectorOutputsPinned computes. A change to the kernel or to
// its compiler that moves a single sampled bit or expectation bit changes
// it.
const enginePin = "457123d672e740d56fb0489b4f8f6bf8b9475562a55853a6a3f548e04624ab4c"

// randomCircuit draws a seeded circuit from the statevector kernel's gate
// set: alternating two-qubit layers (ECR, CX, RZZ at pi/2 or an arbitrary
// angle, or Ucan on a random matching of the coupling graph) and
// one-qubit layers (H, SX, S, Y, RZ at pi or an arbitrary angle), with
// delays on some idle qubits of both.
func randomCircuit(dev *device.Device, rng *rand.Rand, depth int) *circuit.Circuit {
	n := dev.NQubits
	c := circuit.New(n, n)
	delay := func(l *circuit.Layer, q int) {
		l.Add(circuit.Instruction{Gate: gates.Delay, Qubits: []int{q}, Params: []float64{100 + 400*rng.Float64()}})
	}
	for d := 0; d < depth; d++ {
		if d%2 == 1 {
			l := c.AddLayer(circuit.TwoQubitLayer)
			used := make([]bool, n)
			for _, i := range rng.Perm(len(dev.Edges)) {
				e := dev.Edges[i]
				if used[e.A] || used[e.B] || rng.Intn(2) == 0 {
					continue
				}
				used[e.A], used[e.B] = true, true
				a, b := e.A, e.B
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				switch rng.Intn(5) {
				case 0:
					l.ECR(a, b)
				case 1:
					l.CX(a, b)
				case 2:
					l.RZZ(a, b, math.Pi/2)
				case 3:
					l.RZZ(a, b, (rng.Float64()-0.5)*math.Pi)
				default:
					l.Ucan(a, b, rng.Float64(), rng.Float64(), rng.Float64())
				}
			}
			for q := 0; q < n; q++ {
				if !used[q] && rng.Intn(3) == 0 {
					delay(l, q)
				}
			}
			continue
		}
		l := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < n; q++ {
			switch rng.Intn(8) {
			case 0:
				l.H(q)
			case 1:
				l.SX(q)
			case 2:
				l.S(q)
			case 3:
				l.Y(q)
			case 4:
				l.RZ(q, math.Pi)
			case 5:
				l.RZ(q, rng.Float64()*2*math.Pi)
			case 6:
				delay(l, q)
			}
		}
	}
	return c
}

// hashCounts folds counts, in bitstring order, into h.
func hashCounts(h hash.Hash, res sim.Result) {
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(res.Counts[k])))
	}
}

// TestStatevectorOutputsPinned runs seeded random circuits through all
// seven named pipelines on line6 and ring12, plus the feed-forward Bell
// circuit under bare and CA-EC, and pins every sampled count and every
// expectation bit.
func TestStatevectorOutputsPinned(t *testing.T) {
	pipelines := []pass.Pipeline{
		pass.Bare(),
		pass.Twirled(),
		pass.WithDD(dd.Aligned),
		pass.WithDD(dd.Staggered),
		pass.CADD(),
		pass.CAEC(),
		pass.Combined(),
	}
	cfg := sim.DefaultConfig()
	cfg.Shots = 64
	// Expectations are exact per trajectory, so fewer trajectories pin
	// them as well.
	expCfg := cfg
	expCfg.Shots = 16
	h := sha256.New()
	// ring12's 4096 amplitudes cost 64 times line6's per shot, so it runs
	// one seed.
	for _, b := range []struct {
		name  string
		seeds int64
	}{{"line6", 3}, {"ring12", 1}} {
		dev, err := device.NewBackend(b.name)
		if err != nil {
			t.Fatal(err)
		}
		obs := []sim.ObsSpec{{0: 'X', 1: 'X'}, {1: 'Y', 2: 'Z'}}
		for q := 0; q < dev.NQubits; q++ {
			obs = append(obs, sim.ObsSpec{q: 'Z'})
		}
		for seed := int64(1); seed <= b.seeds; seed++ {
			c := randomCircuit(dev, rand.New(rand.NewSource(seed)), 6)
			measured := c.Clone()
			m := measured.AddLayer(circuit.MeasureLayer)
			for q := 0; q < dev.NQubits; q++ {
				m.Measure(q, q)
			}
			cfg.Seed, expCfg.Seed = seed, seed
			for _, pl := range pipelines {
				out, _, err := pl.Apply(dev, rand.New(rand.NewSource(seed)), measured)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", b.name, seed, pl.Name, err)
				}
				res, err := sim.New(dev, cfg).Counts(out)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", b.name, seed, pl.Name, err)
				}
				hashCounts(h, res)
				if out, _, err = pl.Apply(dev, rand.New(rand.NewSource(seed)), c); err != nil {
					t.Fatalf("%s seed %d %s: %v", b.name, seed, pl.Name, err)
				}
				vals, err := sim.New(dev, expCfg).Expectations(out, obs)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", b.name, seed, pl.Name, err)
				}
				for _, v := range vals {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
		}
	}
	opts := device.DefaultOptions()
	opts.Seed = 53
	dev := device.NewLine("dynamic", 3, opts)
	for _, pl := range []pass.Pipeline{pass.Bare(), pass.CAEC()} {
		out, _, err := pl.Apply(dev, rand.New(rand.NewSource(5)), models.BuildDynamicBell(dev.DurFF))
		if err != nil {
			t.Fatalf("bell %s: %v", pl.Name, err)
		}
		cfg.Seed = 5
		res, err := sim.New(dev, cfg).Counts(out)
		if err != nil {
			t.Fatalf("bell %s: %v", pl.Name, err)
		}
		hashCounts(h, res)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != enginePin {
		t.Errorf("engine outputs hash to %s, want %s", got, enginePin)
	}
}
