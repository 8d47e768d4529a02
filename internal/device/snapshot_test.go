package device

import (
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"casq/internal/store"
)

// TestSnapshotFingerprintRoundTrip pins the satellite contract: exporting a
// calibration snapshot, serializing it to JSON, re-importing it, and
// re-exporting must produce a bit-identical fingerprint, so result-store
// cache keys derived from a device survive serialization.
func TestSnapshotFingerprintRoundTrip(t *testing.T) {
	for _, name := range BackendNames() {
		d, err := NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		s1 := d.Snapshot()
		k1, err := store.Fingerprint(s1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := s1.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var s2 Snapshot
		if err := json.Unmarshal(raw, &s2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d2, err := FromSnapshot(s2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k2, err := store.Fingerprint(d2.Snapshot())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if k1 != k2 {
			t.Errorf("%s: fingerprint changed across export -> import: %s vs %s", name, k1, k2)
		}
	}
}

// TestSnapshotRebuildsEqualDevice spot-checks that the imported device
// carries identical tables, not just an identical fingerprint.
func TestSnapshotRebuildsEqualDevice(t *testing.T) {
	d, err := NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := FromSnapshot(d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if d2.NQubits != d.NQubits || len(d2.Edges) != len(d.Edges) || len(d2.NNNEdges) != len(d.NNNEdges) {
		t.Fatalf("shape mismatch: %d/%d qubits, %d/%d edges", d2.NQubits, d.NQubits, len(d2.Edges), len(d.Edges))
	}
	for e, v := range d.ZZ {
		if d2.ZZ[e] != v {
			t.Fatalf("ZZ[%v] = %v, want %v", e, d2.ZZ[e], v)
		}
	}
	for dir, v := range d.Stark {
		if d2.Stark[dir] != v {
			t.Fatalf("Stark[%v] mismatch", dir)
		}
	}
	for q := 0; q < d.NQubits; q++ {
		if d2.T1[q] != d.T1[q] || d2.T2[q] != d.T2[q] || d2.Delta[q] != d.Delta[q] {
			t.Fatalf("per-qubit calibration mismatch at %d", q)
		}
	}
	if d2.ECRDir[d.Edges[0]] != d.ECRDir[d.Edges[0]] {
		t.Error("ECR direction lost")
	}
}

// TestSnapshotJSONStable pins that the snapshot encoding itself is
// deterministic (sorted tables): two exports of the same device are
// byte-identical.
func TestSnapshotJSONStable(t *testing.T) {
	d, _ := NewBackend("grid16")
	a, _ := json.Marshal(d.Snapshot())
	b, _ := json.Marshal(d.Snapshot())
	if string(a) != string(b) {
		t.Error("snapshot encoding is not deterministic")
	}
}

// TestPerturbDrift checks the drift knob: rates move by at most the
// requested fraction, deterministically in the seed, and the original is
// untouched.
func TestPerturbDrift(t *testing.T) {
	d, _ := NewBackend("line12")
	before := d.Snapshot()
	p1 := d.Perturb(9, 0.1)
	p2 := d.Perturb(9, 0.1)
	changed := false
	for e, v := range d.ZZ {
		r := p1.ZZ[e] / v
		if r < 0.9-1e-12 || r > 1.1+1e-12 {
			t.Fatalf("ZZ[%v] drifted by %v, want within ±10%%", e, r)
		}
		if p1.ZZ[e] != p2.ZZ[e] {
			t.Fatal("perturbation is not deterministic")
		}
		if p1.ZZ[e] != v {
			changed = true
		}
	}
	if !changed {
		t.Error("perturbation changed nothing")
	}
	for q := 0; q < d.NQubits; q++ {
		if p1.T2[q] > 2*p1.T1[q] {
			t.Errorf("T2[%d] exceeds 2*T1 after drift", q)
		}
	}
	k1, _ := store.Fingerprint(before)
	k2, _ := store.Fingerprint(d.Snapshot())
	if k1 != k2 {
		t.Error("Perturb mutated the source device")
	}
	if err := p1.Validate(); err != nil {
		t.Error(err)
	}
}

// TestInduced pins the sub-device extraction used by the layout stage.
func TestInduced(t *testing.T) {
	d, _ := NewBackend("heavyhex29")
	region := []int{0, 1, 2, 3}
	sub, phys, err := d.Induced("sub4", region)
	if err != nil {
		t.Fatal(err)
	}
	if sub.NQubits != 4 || len(phys) != 4 {
		t.Fatalf("induced %d qubits", sub.NQubits)
	}
	for i, p := range phys {
		if sub.T1[i] != d.T1[p] || sub.ReadoutErr[i] != d.ReadoutErr[p] {
			t.Errorf("per-qubit calibration not carried for %d<-%d", i, p)
		}
	}
	for _, e := range sub.Edges {
		pe := NewEdge(phys[e.A], phys[e.B])
		if !d.HasEdge(pe.A, pe.B) {
			t.Errorf("induced edge %v has no parent edge %v", e, pe)
		}
		if sub.ZZ[e] != d.ZZ[pe] {
			t.Errorf("induced ZZ[%v] != parent ZZ[%v]", e, pe)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Induced("bad", []int{0, 0}); err == nil {
		t.Error("duplicate region qubit must error")
	}
	if _, _, err := d.Induced("bad", []int{-1}); err == nil {
		t.Error("out-of-range region qubit must error")
	}
}

// TestZZOverride pins the build-time calibration override (the supported
// replacement for mutating dev.ZZ after construction).
func TestZZOverride(t *testing.T) {
	opts := DefaultOptions()
	opts.ZZOverride = []EdgeRate{{A: 1, B: 2, Hz: 230e3}}
	d := NewLine("ov", 4, opts)
	if d.ZZ[NewEdge(1, 2)] != 230e3 {
		t.Errorf("override not applied: %v", d.ZZ[NewEdge(1, 2)])
	}
	// Everything else matches the override-free synthesis (the override
	// must not consume RNG draws).
	plain := NewLine("ov", 4, DefaultOptions())
	if d.ZZ[NewEdge(0, 1)] != plain.ZZ[NewEdge(0, 1)] || d.T1[3] != plain.T1[3] {
		t.Error("override perturbed unrelated calibration")
	}
	defer func() {
		if recover() == nil {
			t.Error("override on an uncoupled edge must panic")
		}
	}()
	opts.ZZOverride = []EdgeRate{{A: 0, B: 3, Hz: 1}}
	NewLine("ov", 4, opts)
}

// TestRegistryDeterministic pins that backend builders are pure: two
// builds fingerprint identically (the sweep cache keys rely on it).
func TestRegistryDeterministic(t *testing.T) {
	for _, name := range BackendNames() {
		a, err := NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewBackend(name)
		ka, _ := store.Fingerprint(a.Snapshot())
		kb, _ := store.Fingerprint(b.Snapshot())
		if ka != kb {
			t.Errorf("backend %s is not deterministic", name)
		}
	}
	if _, err := NewBackend("nope"); err == nil {
		t.Error("unknown backend must error")
	}
	infos := Backends()
	for _, inf := range infos {
		d, _ := NewBackend(inf.Name)
		if d.NQubits != inf.NQubits || len(d.Couplers) != inf.Couplers {
			t.Errorf("%s: info (%dq, %d couplers) disagrees with device (%dq, %d)",
				inf.Name, inf.NQubits, inf.Couplers, d.NQubits, len(d.Couplers))
		}
	}
}

// TestTopologyFamilies sanity-checks the generators.
func TestTopologyFamilies(t *testing.T) {
	hex := HeavyHexTopology("eagle", 7, 15)
	if hex.NQubits != 127 {
		t.Errorf("Eagle lattice has %d qubits, want 127", hex.NQubits)
	}
	if got := HeavyHexTopology("falcon", 3, 9).NQubits; got != 29 {
		t.Errorf("Falcon-class patch has %d qubits, want 29", got)
	}
	if got := HeavyHexTopology("hummingbird", 5, 11).NQubits; got != 65 {
		t.Errorf("Hummingbird lattice has %d qubits, want 65", got)
	}
	grid := GridTopology("g", 4, 4)
	if grid.NQubits != 16 || len(grid.Couplers) != 24 {
		t.Errorf("grid 4x4: %d qubits, %d couplers", grid.NQubits, len(grid.Couplers))
	}
	for _, tp := range []Topology{hex, grid, LineTopology("l", 8), RingTopology("r", 12)} {
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", tp.Name, err)
		}
		if comps := tp.Graph().Components(); len(comps) != 1 {
			t.Errorf("%s: %d components", tp.Name, len(comps))
		}
	}
	// Degree bound of heavy-hex: row qubits have <= 3 neighbors (two
	// horizontal + one bridge), bridges exactly 2.
	g := hex.Graph()
	for q := 0; q < hex.NQubits; q++ {
		if g.Degree(q) > 3 {
			t.Errorf("heavy-hex qubit %d has degree %d", q, g.Degree(q))
		}
	}
}

// line4Corruptions edit a line4 snapshot into one FromSnapshot must
// reject. The first four name a qubit outside the register in a ZZ, Stark
// or two-qubit-error key: the engines index per-qubit tables by these
// keys, so such a device used to pass validation and panic in its first
// run. "nnn repeated" lists an NNN edge twice, which CA-EC's toggling-frame
// sum counted twice while both engines apply it once. The last four list a
// calibration key twice, once in the reversed orientation NewEdge folds
// into the same edge; FromSnapshot used to keep the last rate silently.
var line4Corruptions = map[string]func(*Snapshot){
	"stark source":   func(s *Snapshot) { s.Stark = append(s.Stark, DirectedRate{Src: 9, Dst: 1, Hz: 2e4}) },
	"stark target":   func(s *Snapshot) { s.Stark = append(s.Stark, DirectedRate{Src: 1, Dst: 4, Hz: 2e4}) },
	"zz":             func(s *Snapshot) { s.ZZ = append(s.ZZ, EdgeRate{A: 2, B: 7, Hz: 5e4}) },
	"err2q":          func(s *Snapshot) { s.Err2Q = append(s.Err2Q, EdgeRate{A: -1, B: 0, Hz: 1e-2}) },
	"nnn repeated":   func(s *Snapshot) { s.Topology.NNN = append(s.Topology.NNN, Edge{0, 2}, Edge{0, 2}) },
	"zz repeated":    func(s *Snapshot) { s.ZZ = append(s.ZZ, EdgeRate{A: 0, B: 1, Hz: 210.7e3}) },
	"zz reversed":    func(s *Snapshot) { s.ZZ = append(s.ZZ, EdgeRate{A: 1, B: 0, Hz: 70.2e3}) },
	"stark repeated": func(s *Snapshot) { s.Stark = append(s.Stark, DirectedRate{Src: 0, Dst: 1, Hz: 100e3}) },
	"err2q repeated": func(s *Snapshot) { s.Err2Q = append(s.Err2Q, EdgeRate{A: 0, B: 1, Hz: 0.5}) },
}

// TestFromSnapshotRejectsCorruptSnapshot requires FromSnapshot to reject
// every line4Corruptions entry and to accept the clean snapshot.
func TestFromSnapshotRejectsCorruptSnapshot(t *testing.T) {
	for name, corrupt := range line4Corruptions {
		s := NewLine("line4", 4, DefaultOptions()).Snapshot()
		corrupt(&s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: FromSnapshot accepted a corrupt line4 snapshot", name)
		}
	}
	if _, err := FromSnapshot(NewLine("line4", 4, DefaultOptions()).Snapshot()); err != nil {
		t.Fatalf("clean snapshot: %v", err)
	}
}

// FuzzSnapshotJSON decodes arbitrary bytes as a snapshot, as a caller of
// the facade's DeviceFromSnapshot would, and requires FromSnapshot never
// to panic. A device it accepts lists each NN and NNN edge once, keeps one
// ZZ, Stark and Err2Q entry per entry the snapshot lists, and its own
// snapshot is accepted again and fingerprints the same after the round
// trip. The seeds are the clean line4 snapshot and its
// line4Corruptions; a 127-qubit seed would make each input slow.
func FuzzSnapshotJSON(f *testing.F) {
	seed := func(edit func(*Snapshot)) {
		s := NewLine("line4", 4, DefaultOptions()).Snapshot()
		edit(&s)
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	seed(func(*Snapshot) {})
	for _, name := range slices.Sorted(maps.Keys(line4Corruptions)) {
		seed(line4Corruptions[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Snapshot
		if json.Unmarshal(data, &s) != nil {
			return
		}
		d, err := FromSnapshot(s)
		if err != nil {
			return
		}
		seen := map[Edge]bool{}
		for _, e := range slices.Concat(d.Edges, d.NNNEdges) {
			if seen[e] {
				t.Fatalf("edge %v listed twice", e)
			}
			seen[e] = true
		}
		if len(d.ZZ) != len(s.ZZ) || len(d.Stark) != len(s.Stark) || len(d.Err2Q) != len(s.Err2Q) {
			t.Fatalf("calibration entries: device ZZ/Stark/Err2Q %d/%d/%d, snapshot lists %d/%d/%d",
				len(d.ZZ), len(d.Stark), len(d.Err2Q), len(s.ZZ), len(s.Stark), len(s.Err2Q))
		}
		s1 := d.Snapshot()
		d2, err := FromSnapshot(s1)
		if err != nil {
			t.Fatalf("re-import of an accepted snapshot: %v", err)
		}
		k1, err := store.Fingerprint(s1)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := store.Fingerprint(d2.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("fingerprint changed across the round trip: %s vs %s", k1, k2)
		}
	})
}
