package stab

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"casq/internal/circuit"
	"casq/internal/dd"
	"casq/internal/device"
	"casq/internal/pass"
	"casq/internal/pauli"
	"casq/internal/sim"
)

// programPin is the SHA-256 of every compiled program (ops, Clifford
// tables by content, reference measurement record) that
// TestCompiledProgramsPinned builds, together with the error text of the
// circuits Supports rejects. A change to the compiler that moves a single
// op, probability bit or reference outcome changes it.
const programPin = "1dda3d373539445fce3b4bc57786953e996721baa1918444ceb4a8cfc7599a54"

// randomCliffordCircuit draws a seeded full-device circuit from the
// stabilizer engine's gate set: alternating two-qubit layers (ECR, CX and,
// when rzz is set, RZZ(pi/2) on a random matching of the coupling graph)
// and one-qubit layers (H, SX, S or RZ(pi) on a random subset), then a
// measurement of every qubit. CA-EC folds compensations into an RZZ,
// which leaves it non-Clifford, so only the circuits without RZZ reach
// the stab compiler under CA-EC.
func randomCliffordCircuit(dev *device.Device, rng *rand.Rand, depth int, rzz bool) *circuit.Circuit {
	n := dev.NQubits
	kinds := 2
	if rzz {
		kinds = 3
	}
	c := circuit.New(n, n)
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
				switch rng.Intn(kinds) {
				case 0:
					l.ECR(a, b)
				case 1:
					l.CX(a, b)
				default:
					l.RZZ(a, b, math.Pi/2)
				}
			}
			continue
		}
		l := c.AddLayer(circuit.OneQubitLayer)
		for q := 0; q < n; q++ {
			switch rng.Intn(5) {
			case 0:
				l.H(q)
			case 1:
				l.SX(q)
			case 2:
				l.S(q)
			case 3:
				l.RZ(q, math.Pi)
			}
		}
	}
	m := c.AddLayer(circuit.MeasureLayer)
	for q := 0; q < n; q++ {
		m.Measure(q, q)
	}
	return c
}

// hashProgram folds every op field and the reference measurement record
// into h. Clifford tables enter by their conjugation images, not by
// pointer.
func hashProgram(h hash.Hash, p *program) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	put(uint64(p.nq))
	put(uint64(p.ncb))
	put(uint64(len(p.ops)))
	for i := range p.ops {
		o := &p.ops[i]
		put(uint64(o.kind))
		put(uint64(o.q0))
		put(uint64(o.q1))
		if o.c1 != nil {
			for q := pauli.I; q <= pauli.Z; q++ {
				c := o.c1.Conjugate(q)
				put(uint64(c.Out))
				put(uint64(c.Sign))
			}
		}
		if o.c2 != nil {
			for p0 := pauli.I; p0 <= pauli.Z; p0++ {
				for p1 := pauli.I; p1 <= pauli.Z; p1++ {
					c := o.c2.Conjugate(pauli.Pair{P0: p0, P1: p1})
					put(uint64(c.Out.P0))
					put(uint64(c.Out.P1))
					put(uint64(c.Sign))
				}
			}
		}
		put(uint64(o.p))
		putF(o.thrX)
		putF(o.thrXY)
		putF(o.thrXYZ)
		putF(o.prob)
		put(uint64(o.cbit))
		put(uint64(o.mi))
	}
	put(uint64(len(p.meas)))
	for _, m := range p.meas {
		put(uint64(m.ref))
		if m.det {
			put(1)
		} else {
			put(0)
		}
		put(uint64(len(m.fx)))
		for w := range m.fx {
			put(m.fx[w])
			put(m.fz[w])
		}
	}
}

// TestCompiledProgramsPinned compiles seeded random Clifford circuits
// through five twirled pipelines on four backends, up to the full
// 127-qubit device, and pins the resulting stab programs. The default
// backend golden hashes run small devices at 16 shots; this pin also
// covers full-device programs, whose shots take the 64-shot block path.
func TestCompiledProgramsPinned(t *testing.T) {
	pipelines := []pass.Pipeline{
		pass.Twirled(),
		pass.WithDD(dd.Aligned),
		pass.WithDD(dd.Staggered),
		pass.CADD(),
		pass.CAEC(),
	}
	h := sha256.New()
	for _, name := range []string{"line6", "grid16", "heavyhex29", "eagle127"} {
		dev, err := device.NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		e := New(dev, sim.DefaultConfig())
		for seed := int64(1); seed <= 4; seed++ {
			c := randomCliffordCircuit(dev, rand.New(rand.NewSource(seed)), 6, seed%2 == 0)
			for _, pl := range pipelines {
				out, _, err := pl.Apply(dev, rand.New(rand.NewSource(seed)), c)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", name, seed, pl.Name, err)
				}
				p, err := e.compile(out)
				if err != nil {
					h.Write([]byte(err.Error()))
					continue
				}
				hashProgram(h, p)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != programPin {
		t.Errorf("compiled programs hash to %s, want %s", got, programPin)
	}
}
