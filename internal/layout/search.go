package layout

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/obs"
	"casq/internal/qgraph"
	"casq/internal/sched"
	"casq/internal/surrogate"
	"casq/internal/toggling"
)

// SearchReport is the telemetry of one ChooseWith call: how many candidates
// the enumeration produced, how many the surrogate let through to exact
// scoring, the fitted model, and the throughput the benchmarks track.
type SearchReport struct {
	// Backend is the parent device's name.
	Backend string `json:"backend"`
	// Qubits is the workload width.
	Qubits int `json:"qubits"`
	// Enumerated counts candidate mappings after enumeration.
	Enumerated int `json:"enumerated"`
	// ExactScored counts candidates that received the full
	// remap/route/schedule/integrate score.
	ExactScored int `json:"exact_scored"`
	// Pruned reports whether the surrogate pruned the candidate list.
	Pruned bool `json:"pruned"`
	// PruneRatio is the fraction of enumerated candidates the surrogate
	// spared from exact scoring (0 on the exhaustive path).
	PruneRatio float64 `json:"prune_ratio"`
	// Model is the ridge regression fitted during this search (nil when
	// pruning was off or fell back).
	Model *surrogate.Model `json:"-"`
	// BestExact is the chosen placement's exact score.
	BestExact float64 `json:"best_exact"`
	// BestPredicted is the surrogate's estimate for the chosen placement
	// (0 when no model was fitted).
	BestPredicted float64 `json:"best_predicted"`
	// Workers is the exact-scoring pool size used.
	Workers int `json:"workers"`
	// ElapsedMS is the wall-clock time of the whole search.
	ElapsedMS float64 `json:"elapsed_ms"`
	// CandidatesPerSec is Enumerated divided by the elapsed time — the
	// effective search throughput including surrogate leverage.
	CandidatesPerSec float64 `json:"candidates_per_sec"`
}

// igEdge is one logical interaction pair of the probe circuit.
type igEdge struct{ a, b int }

// interactionEdges lists the distinct logical pairs coupled by 2q gates.
func interactionEdges(ig *qgraph.Graph) []igEdge {
	var out []igEdge
	for a := 0; a < ig.N; a++ {
		for _, b := range ig.Neighbors(a) {
			if b > a {
				out = append(out, igEdge{a, b})
			}
		}
	}
	return out
}

// incidence is one crosstalk edge seen from one endpoint.
type incidence struct {
	other int
	zz    float64
	nnn   bool
}

// staticContext caches the per-qubit structures the static filter and the
// surrogate features read, so evaluating one candidate costs a single pass
// over its region in ascending qubit order. The fixed order is load-bearing:
// the old filter iterated a membership map, which made the 1/T2 float sum —
// and with it the static ranking feeding the TopK cut — run-dependent.
type staticContext struct {
	inc    [][]incidence
	invT1  []float64
	invT2  []float64
	dist   [][]int // coupling-graph hop distances
	member []bool
	region []int  // scratch: sorted copy of the candidate under evaluation
	keyBuf []byte // scratch: region key assembly
}

// newStaticContext reads dev's calibration into per-qubit tables; the hop
// distances are the topology index's, shared and never written here.
func newStaticContext(dev *device.Device) *staticContext {
	s := &staticContext{
		inc:    make([][]incidence, dev.NQubits),
		invT1:  make([]float64, dev.NQubits),
		invT2:  make([]float64, dev.NQubits),
		dist:   dev.HopDistances(),
		member: make([]bool, dev.NQubits),
	}
	nn := len(dev.Edges)
	for i, e := range dev.AllCrosstalkEdges() {
		zz := dev.ZZ[e]
		if zz == 0 {
			continue
		}
		isNNN := i >= nn
		s.inc[e.A] = append(s.inc[e.A], incidence{e.B, zz, isNNN})
		s.inc[e.B] = append(s.inc[e.B], incidence{e.A, zz, isNNN})
	}
	for q := 0; q < dev.NQubits; q++ {
		if t1 := dev.T1[q]; t1 > 0 {
			s.invT1[q] = 1e9 / t1
		}
		if t2 := dev.T2[q]; t2 > 0 {
			s.invT2[q] = 1e9 / t2
		}
	}
	return s
}

// scored is one candidate mapping with its static filter score, surrogate
// features, boundary ZZ sum (reused by the exact score's boundary
// penalty), and sorted-region key (diversity bucketing).
type scored struct {
	phys       []int
	score      float64
	feats      surrogate.Features
	boundaryZZ float64
	key        string
}

// evaluate runs the static pass over one candidate: filter score (ZZ
// internal to the region, half weight for boundary-crossing edges, plus
// each member's 1e9/T2) and the surrogate feature vector, all accumulated
// over the sorted region so the result is bit-stable across runs.
func (s *staticContext) evaluate(phys []int, ia []igEdge) scored {
	s.region = append(s.region[:0], phys...)
	slices.Sort(s.region)
	for _, p := range s.region {
		s.member[p] = true
	}
	var internal, boundary, nnn, t1s, t2s float64
	for _, q := range s.region {
		for _, ie := range s.inc[q] {
			if s.member[ie.other] {
				if ie.other > q {
					internal += ie.zz
					if ie.nnn {
						nnn++
					}
				}
			} else {
				boundary += ie.zz
			}
		}
		t1s += s.invT1[q]
		t2s += s.invT2[q]
	}
	diameter := 0
	for i, q := range s.region {
		for _, r := range s.region[i+1:] {
			if d := s.dist[q][r]; d > diameter {
				diameter = d
			}
		}
	}
	swaps := 0.0
	for _, e := range ia {
		if d := s.dist[phys[e.a]][phys[e.b]]; d > 1 {
			swaps += float64(d - 1)
		}
	}
	s.keyBuf = s.keyBuf[:0]
	for _, p := range s.region {
		s.member[p] = false
		s.keyBuf = append(s.keyBuf, byte(p), byte(p>>8))
	}
	var f surrogate.Features
	f[surrogate.FeatInternalZZ] = internal
	f[surrogate.FeatBoundaryZZ] = boundary
	f[surrogate.FeatInvT1] = t1s
	f[surrogate.FeatInvT2] = t2s
	f[surrogate.FeatNNN] = nnn
	f[surrogate.FeatDiameter] = float64(diameter)
	f[surrogate.FeatSwapEst] = swaps
	return scored{
		phys:       phys,
		score:      internal + boundary/2 + t2s,
		feats:      f,
		boundaryZZ: boundary,
		key:        string(s.keyBuf),
	}
}

// diverseOrder reorders statically-sorted candidates round-robin across
// distinct physical regions. The static score is orientation-invariant (it
// only sees the qubit set), so a cycle region's 24 rotations/reflections
// sort contiguously and a plain prefix cut would let one region crowd
// every other out of exact scoring — the exact toggling-frame scorer would
// never see the regions where the static proxy is wrong (it ignores Stark,
// scheduling, and the circuit's idling pattern). One orientation per
// region first, then second orientations, and so on, preserving static
// order within each round. The same ordering feeds the surrogate's fit
// batch, so the model trains on distinct regions rather than one region's
// orientations.
//
// rank lists pre's indices in static order; diverseOrder reorders it in
// place and copies no candidate. Regions are numbered in first-seen order,
// and a candidate that is its region's k-th takes slot (k, region), so
// sorting by slot yields round k's candidates in region order.
func diverseOrder(pre []scored, rank []int) {
	region := make(map[string]int, len(pre))
	var seen []int // per region: candidates ranked so far
	slot := make([]int, len(pre))
	for _, i := range rank {
		r, ok := region[pre[i].key]
		if !ok {
			r = len(seen)
			region[pre[i].key] = r
			seen = append(seen, 0)
		}
		slot[i] = seen[r]*len(pre) + r
		seen[r]++
	}
	slices.SortFunc(rank, func(a, b int) int { return cmp.Compare(slot[a], slot[b]) })
}

// pick copies the candidates pre[idx[0]], pre[idx[1]], ... in that order.
func pick(pre []scored, idx []int) []scored {
	out := make([]scored, len(idx))
	for j, i := range idx {
		out[j] = pre[i]
	}
	return out
}

// prediction is the surrogate's estimate y for the idx-th candidate past
// the fit batch.
type prediction struct {
	idx int
	y   float64
}

// keepBest inserts p into best, which holds at most k predictions in
// ascending (y, idx) order, y compared by cmp.Compare (NaN first). Callers
// offer predictions in increasing idx, so p goes after every kept one it
// ties with, and best ends equal to the first k of a full sort of every
// prediction offered.
func keepBest(best []prediction, p prediction, k int) []prediction {
	j := len(best)
	for j > 0 && cmp.Compare(p.y, best[j-1].y) < 0 {
		j--
	}
	if j >= k {
		return best
	}
	if len(best) < k {
		best = append(best, prediction{})
	}
	copy(best[j+1:], best[j:len(best)-1])
	best[j] = p
	return best
}

// scoreCandidates exact-scores the candidates on a worker pool. Results
// land at the candidate's own index; a candidate whose placement fails
// (un-routable region) stays nil. Each place call is a pure function of
// its candidate, so the index-aligned result — and every argmin taken over
// it in index order — is bit-identical at any worker count.
func scoreCandidates(dev *device.Device, c *circuit.Circuit, cands []scored, workers int) []*Placement {
	out := make([]*Placement, len(cands))
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		for i := range cands {
			out[i], _ = place(dev, c, cands[i].phys, cands[i].boundaryZZ)
		}
		return out
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				if pl, err := place(dev, c, cands[i].phys, cands[i].boundaryZZ); err == nil {
					out[i] = pl
				}
			}
		}()
	}
	for i := range cands {
		ch <- i
	}
	close(ch)
	wg.Wait()
	return out
}

// argmin scans placements in index order, returning the lowest score with
// ties broken toward the lexicographically smallest mapping.
func argmin(best *Placement, pls []*Placement) *Placement {
	for _, pl := range pls {
		if pl == nil {
			continue
		}
		if best == nil || pl.Score < best.Score ||
			(pl.Score == best.Score && slices.Compare(pl.Phys, best.Phys) < 0) {
			best = pl
		}
	}
	return best
}

// ChooseWith is Choose plus search telemetry. The search runs in three
// tiers: static filter + diversity ordering over every enumerated
// candidate, an online surrogate (fitted on the DefaultFitBatch exact
// scores from this same call) pruning the rest to the DefaultExactTopK
// best-predicted, and parallel exact scoring of the survivors. The fit
// batch leads the diversity ordering, so the statically-best orientation
// of each leading region is always exact-scored regardless of what the
// surrogate thinks — the argmin is taken over guaranteed-exact scores
// only, and the model never decides more than which long-shot candidates
// get a second look.
func ChooseWith(dev *device.Device, c *circuit.Circuit, opts Options) (*Placement, *SearchReport, error) {
	opts = opts.withDefaults()
	start := time.Now()
	mSearches.Inc()
	// Tier timing: each observe closes the current tier and opens the
	// next, so the tier histograms partition the search wall time.
	tierStart := start
	observeTier := func(h *obs.Histogram) {
		now := time.Now()
		h.Observe(now.Sub(tierStart).Seconds())
		tierStart = now
	}
	n := c.NQubits
	if n > dev.NQubits {
		return nil, nil, fmt.Errorf("layout: circuit needs %d qubits, backend %s has %d", n, dev.Name, dev.NQubits)
	}
	ig := interactionGraph(c)
	cands := enumerate(dev, dev.CouplingGraph(), ig)
	observeTier(mTierEnumerate)
	if len(cands) == 0 {
		return nil, nil, fmt.Errorf("layout: no %d-qubit embedding found on %s", n, dev.Name)
	}

	ia := interactionEdges(ig)
	sctx := newStaticContext(dev)
	pre := make([]scored, len(cands))
	for i, phys := range cands {
		pre[i] = sctx.evaluate(phys, ia)
	}
	// Sort indices, not the candidates: ties on score break toward the
	// lexicographically smallest mapping, and mappings are distinct. The
	// diversity ordering then reorders the same indices, and only the
	// candidates sent to exact scoring are copied out of pre.
	rank := make([]int, len(pre))
	for i := range rank {
		rank[i] = i
	}
	slices.SortFunc(rank, func(a, b int) int {
		if c := cmp.Compare(pre[a].score, pre[b].score); c != 0 {
			return c
		}
		return slices.Compare(pre[a].phys, pre[b].phys)
	})
	diverseOrder(pre, rank)
	observeTier(mTierStatic)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &SearchReport{
		Backend:    dev.Name,
		Qubits:     n,
		Enumerated: len(rank),
		Workers:    workers,
	}

	var best *Placement
	prune := !opts.NoSurrogate && len(rank) > DefaultFitBatch+DefaultExactTopK
	if prune {
		fit := pick(pre, rank[:DefaultFitBatch])
		fitPls := scoreCandidates(dev, c, fit, workers)
		rep.ExactScored += DefaultFitBatch
		samples := make([]surrogate.Sample, 0, DefaultFitBatch)
		for i, pl := range fitPls {
			if pl != nil {
				samples = append(samples, surrogate.Sample{X: fit[i].feats, Y: pl.Score})
			}
		}
		model, err := surrogate.Fit(samples, 0)
		observeTier(mTierFit)
		if err == nil {
			rep.Model = model
			// Keep the DefaultExactTopK best predictions in the order a full
			// sort by (prediction, index) would give them.
			rest := rank[DefaultFitBatch:]
			kept := make([]prediction, 0, DefaultExactTopK)
			for i, r := range rest {
				kept = keepBest(kept, prediction{i, model.Predict(pre[r].feats)}, DefaultExactTopK)
			}
			top := make([]scored, len(kept))
			for j, p := range kept {
				top[j] = pre[rest[p.idx]]
			}
			topPls := scoreCandidates(dev, c, top, workers)
			rep.ExactScored += len(top)
			best = argmin(argmin(nil, fitPls), topPls)
			observeTier(mTierExact)
			rep.Pruned = true
			rep.PruneRatio = 1 - float64(rep.ExactScored)/float64(rep.Enumerated)
		} else {
			// Too many finalists failed placement to constrain the ridge
			// system: fall back to the exhaustive TopK path below.
			prune = false
		}
	}
	if !prune {
		k := min(opts.TopK, len(rank))
		best = argmin(nil, scoreCandidates(dev, c, pick(pre, rank[:k]), workers))
		observeTier(mTierExact)
		rep.ExactScored = k
		rep.Pruned = false
		rep.PruneRatio = 0
	}
	if best == nil {
		return nil, nil, fmt.Errorf("layout: no candidate embedding of %d qubits on %s survived scoring", n, dev.Name)
	}
	rep.BestExact = best.Score
	if rep.Model != nil {
		rep.BestPredicted = rep.Model.Predict(sctx.evaluate(best.Phys, ia).feats)
	}
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if rep.ElapsedMS > 0 {
		rep.CandidatesPerSec = float64(rep.Enumerated) / (rep.ElapsedMS / 1e3)
	}
	return best, rep, nil
}

// place materializes one candidate: induced sub-device, route (remapping
// as it copies), schedule, exact toggling-frame score plus the boundary penalty —
// 2*pi*nu*T of potentially uncompensated phase per boundary-crossing ZZ
// edge, the outside qubit idling for the whole circuit. boundaryZZ is the
// candidate's boundary-crossing ZZ sum (Hz), precomputed by the static
// pass.
func place(dev *device.Device, c *circuit.Circuit, phys []int, boundaryZZ float64) (*Placement, error) {
	sub, region, err := dev.Induced(dev.Name+"/sub", phys)
	if err != nil {
		return nil, err
	}
	// region is phys sorted, without repeats (Induced rejects them).
	toSub := make([]int, len(phys))
	for l, p := range phys {
		toSub[l], _ = slices.BinarySearch(region, p)
	}
	routed, _, _, err := route(sub, c, toSub)
	if err != nil {
		return nil, err
	}
	dur := sched.Schedule(routed, sub)
	score := toggling.NewIntegrator(sub).ScoreCircuit(routed) + 2*math.Pi*boundaryZZ*1e-9*dur
	return &Placement{
		Backend: dev.Name,
		Phys:    append([]int(nil), phys...),
		Region:  region,
		Sub:     sub,
		ToSub:   toSub,
		Score:   score,
	}, nil
}

// regionBoundaryZZ sums the ZZ rates crossing the region boundary of an
// arbitrary mapping — the one-off path for re-scoring a deployed placement
// outside a search (the search itself gets this from the static pass).
func regionBoundaryZZ(dev *device.Device, phys []int) float64 {
	member := make([]bool, dev.NQubits)
	for _, p := range phys {
		member[p] = true
	}
	s := 0.0
	for _, e := range dev.AllCrosstalkEdges() {
		if member[e.A] != member[e.B] {
			s += dev.ZZ[e]
		}
	}
	return s
}

// Rescore re-runs the exact score of a known mapping against (possibly
// drifted) calibration: the same remap/route/schedule/integrate path the
// search uses, without any search. The drift monitor calls this when the
// surrogate flags a placement as suspect.
func Rescore(dev *device.Device, c *circuit.Circuit, phys []int) (*Placement, error) {
	return place(dev, c, phys, regionBoundaryZZ(dev, phys))
}

// PathProbe builds the standard probe workload the recompilation service
// scores layouts against: an n-qubit brickwork line of the given depth
// (alternating even/odd nearest-neighbor ECR layers behind an initial 1q
// layer). Its interaction graph is the path 0-1-...-n-1, so layout search
// enumerates the backend's simple paths natively.
func PathProbe(n, depth int) *circuit.Circuit {
	c := circuit.New(n, 0)
	c.AddLayer(circuit.OneQubitLayer).H(0)
	for s := 0; s < depth; s++ {
		even := c.AddLayer(circuit.TwoQubitLayer)
		for q := 0; q+1 < n; q += 2 {
			even.ECR(q, q+1)
		}
		odd := c.AddLayer(circuit.TwoQubitLayer)
		for q := 1; q+1 < n; q += 2 {
			odd.ECR(q, q+1)
		}
	}
	return c
}
