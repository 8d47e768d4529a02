package layout

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"casq/internal/device"
)

// staticRank runs the static pass over the candidates and returns them in
// filter order (score, then lexicographic mapping).
func staticRank(dev *device.Device, cands [][]int) []scored {
	sctx := newStaticContext(dev)
	pre := make([]scored, len(cands))
	for i, phys := range cands {
		pre[i] = sctx.evaluate(phys, nil)
	}
	sort.Slice(pre, func(i, j int) bool {
		if pre[i].score != pre[j].score {
			return pre[i].score < pre[j].score
		}
		return lexLess(pre[i].phys, pre[j].phys)
	})
	return pre
}

// orderFingerprint hashes the candidate sequence, mappings and scores both.
func orderFingerprint(t *testing.T, pre []scored) uint64 {
	t.Helper()
	h := fnv.New64a()
	for _, c := range pre {
		for _, p := range c.phys {
			h.Write([]byte{byte(p), byte(p >> 8)})
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

// TestStaticRankDeterministic is the regression test for the old
// staticScore map-iteration bug: the 1e9/T2 terms were summed in map
// order, so equal-region candidates could flip ranks between runs. The
// new sorted-slice accumulation must produce one fingerprint regardless
// of input permutation or how often it runs.
func TestStaticRankDeterministic(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	g := dev.CouplingGraph()
	cands := enumeratePaths(g, []int{0, 1, 2, 3, 4}, 512)
	if len(cands) < 32 {
		t.Fatalf("fixture too small: %d candidates", len(cands))
	}
	want := orderFingerprint(t, staticRank(dev, cands))
	for rep := 0; rep < 5; rep++ {
		if got := orderFingerprint(t, staticRank(dev, cands)); got != want {
			t.Fatalf("repeat %d: static rank fingerprint %x != %x", rep, got, want)
		}
	}
	// The ranking must also be independent of enumeration order: shuffle
	// the inputs and re-rank.
	rng := rand.New(rand.NewSource(9))
	shuffled := append([][]int(nil), cands...)
	for rep := 0; rep < 3; rep++ {
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := orderFingerprint(t, staticRank(dev, shuffled)); got != want {
			t.Fatalf("shuffle %d: static rank fingerprint %x != %x", rep, got, want)
		}
	}
}

// TestStaticScoreMatchesLegacyFormula pins the rewritten static pass to
// the documented formula — internal ZZ at full weight, boundary-crossing
// ZZ at half, plus each member's 1e9/T2 — via an independent map-based
// evaluation (whose float error we bound rather than match bitwise).
func TestStaticScoreMatchesLegacyFormula(t *testing.T) {
	opts := device.DefaultOptions()
	opts.Seed = 11
	dev := device.NewLine("static7", 12, opts)
	sctx := newStaticContext(dev)
	phys := []int{7, 4, 5, 6}
	got := sctx.evaluate(phys, nil).score

	used := map[int]bool{}
	for _, p := range phys {
		used[p] = true
	}
	want := 0.0
	for _, e := range dev.AllCrosstalkEdges() {
		switch {
		case used[e.A] && used[e.B]:
			want += dev.ZZ[e]
		case used[e.A] || used[e.B]:
			want += dev.ZZ[e] / 2
		}
	}
	for _, p := range phys {
		if t2 := dev.T2[p]; t2 > 0 {
			want += 1e9 / t2
		}
	}
	if rel := (got - want) / want; rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("static score %.15g, legacy formula %.15g", got, want)
	}
}

// TestPrunedChooseNearExhaustive is the surrogate property test: on
// randomized backends the pruned search's chosen placement must score
// within a small factor of full exhaustive exact scoring, and disabling
// the surrogate with an uncapped TopK must reproduce the exhaustive
// argmin identically.
func TestPrunedChooseNearExhaustive(t *testing.T) {
	probe := PathProbe(4, 2)
	for seed := int64(1); seed <= 6; seed++ {
		opts := device.DefaultOptions()
		opts.Seed = seed
		dev := device.NewLine("prop", 40, opts)

		// Ground truth: every enumerated candidate, exact-scored.
		cands := enumerate(dev, dev.CouplingGraph(), interactionGraph(probe))
		var want *Placement
		for _, phys := range cands {
			pl, err := Rescore(dev, probe, phys)
			if err != nil {
				continue
			}
			if want == nil || pl.Score < want.Score ||
				(pl.Score == want.Score && lexLess(pl.Phys, want.Phys)) {
				want = pl
			}
		}
		if want == nil {
			t.Fatalf("seed %d: no candidate scored", seed)
		}

		exh := DefaultOptions()
		exh.NoSurrogate = true
		exh.TopK = len(cands)
		plExh, repExh, err := ChooseWith(dev, probe, exh)
		if err != nil {
			t.Fatal(err)
		}
		if !sameInts(plExh.Phys, want.Phys) || plExh.Score != want.Score {
			t.Fatalf("seed %d: exhaustive Choose %v (%.6g) != serial ground truth %v (%.6g)",
				seed, plExh.Phys, plExh.Score, want.Phys, want.Score)
		}
		if repExh.Pruned {
			t.Fatalf("seed %d: NoSurrogate search reported pruning", seed)
		}

		pl, rep, err := ChooseWith(dev, probe, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pruned {
			t.Fatalf("seed %d: default search did not prune %d candidates", seed, rep.Enumerated)
		}
		if rep.ExactScored >= rep.Enumerated {
			t.Fatalf("seed %d: pruned search exact-scored everything (%d/%d)", seed, rep.ExactScored, rep.Enumerated)
		}
		if pl.Score < want.Score {
			t.Fatalf("seed %d: pruned score %.6g below exhaustive optimum %.6g — scoring is inconsistent",
				seed, pl.Score, want.Score)
		}
		if pl.Score > 1.10*want.Score {
			t.Errorf("seed %d: pruned score %.6g > 1.10x exhaustive optimum %.6g (ratio %.3f)",
				seed, pl.Score, want.Score, pl.Score/want.Score)
		}
	}
}

// TestChooseBitIdenticalAcrossWorkerCounts pins the acceptance guarantee:
// the pruned search's placement, score, and telemetry must be bit-equal
// at any worker-pool size.
func TestChooseBitIdenticalAcrossWorkerCounts(t *testing.T) {
	dev, err := device.NewBackend("heavyhex29")
	if err != nil {
		t.Fatal(err)
	}
	probe := PathProbe(6, 3)
	var ref *Placement
	var refRep *SearchReport
	for _, workers := range []int{1, 2, 3, 7, 16} {
		opts := DefaultOptions()
		opts.Workers = workers
		pl, rep, err := ChooseWith(dev, probe, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refRep = pl, rep
			if !rep.Pruned {
				t.Fatalf("expected the %d-candidate search to prune", rep.Enumerated)
			}
			continue
		}
		if !sameInts(pl.Phys, ref.Phys) || pl.Score != ref.Score {
			t.Fatalf("workers=%d: placement %v (%.17g) != workers=1 %v (%.17g)",
				workers, pl.Phys, pl.Score, ref.Phys, ref.Score)
		}
		if rep.ExactScored != refRep.ExactScored || rep.Enumerated != refRep.Enumerated {
			t.Fatalf("workers=%d: telemetry %d/%d != %d/%d",
				workers, rep.ExactScored, rep.Enumerated, refRep.ExactScored, refRep.Enumerated)
		}
		if rep.BestPredicted != refRep.BestPredicted {
			t.Fatalf("workers=%d: surrogate prediction drifted: %v vs %v",
				workers, rep.BestPredicted, refRep.BestPredicted)
		}
	}
}

// TestDiverseOrderKeysDistinctRegions pins the allocation-lean region key:
// two orientations of one region must collide, different regions must not.
func TestDiverseOrderKeysDistinctRegions(t *testing.T) {
	opts := device.DefaultOptions()
	opts.Seed = 3
	dev := device.NewLine("key6", 6, opts)
	sctx := newStaticContext(dev)
	a := sctx.evaluate([]int{0, 1, 2}, nil)
	b := sctx.evaluate([]int{2, 1, 0}, nil)
	c := sctx.evaluate([]int{1, 2, 3}, nil)
	if a.key != b.key {
		t.Errorf("orientations of one region got distinct keys %q vs %q", a.key, b.key)
	}
	if a.key == c.key {
		t.Errorf("distinct regions share key %q", a.key)
	}
	pre, rank := []scored{a, b, c}, []int{0, 1, 2}
	diverseOrder(pre, rank)
	ordered := pick(pre, rank)
	if len(ordered) != 3 {
		t.Fatalf("diverse order dropped candidates: %d of 3", len(ordered))
	}
	if ordered[0].key != a.key || ordered[1].key != c.key {
		t.Errorf("round-robin should interleave regions first: got keys %q,%q,%q",
			ordered[0].key, ordered[1].key, ordered[2].key)
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lexLess orders equal-length mappings lexicographically — the tie-break
// the search applies, restated independently of it.
func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
