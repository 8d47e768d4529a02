package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"casq/internal/experiments"
	"casq/internal/obs"
	"casq/internal/sweep"
)

// op is one timed operation of a workload: one figure request, or one
// layout search followed by its drift report.
type op struct {
	lat      time.Duration // client-observed time of the operation's requests
	requests int
	// counts are the work counts that must repeat exactly for a seed.
	counts  []int64
	samples []sample // traced requests
}

// requestMix generates a workload's request sequence from its seed and checks
// every response.
type requestMix interface {
	// begin rewinds the request sequence for the workload seed.
	begin(seed int64)
	// warmUp runs the untimed set-up requests of set-up repetition rep on
	// a freshly built harness; cold workloads use seeds outside the timed
	// sequence.
	warmUp(h *harness, rep int) error
	// step issues operation i of the timed sequence and checks it.
	step(h *harness, i int) (op, error)
	// summarize prints the run totals of the exact counts and checks the
	// workload's within-run count invariants.
	summarize(t *tally) error
}

// exchange sends one request and returns it with the meter delta it
// caused; in a traced harness the request gets its own tracer and the
// sample carries the recorded spans.
func (h *harness) exchange(method, path, body string) (response, sample, error) {
	var s sample
	if h.traced {
		s.at = time.Now()
		h.tr.Store(obs.NewTracer())
	}
	before := readMeters(h)
	resp, err := h.do(method, path, body)
	s.delta = readMeters(h).sub(before)
	s.lat = resp.lat
	if h.traced {
		s.events = h.tr.Load().Events()
		h.tr.Store(nil)
	}
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("%s %s: status %d: %s", method, path, resp.status, bytes.TrimSpace(resp.body))
	}
	return resp, s, err
}

// figureCounts is the per-request tripwire tuple of a figure request.
func figureCounts(d meters) []int64 {
	return []int64{int64(d.jobs), int64(d.instances), int64(d.shots), int64(d.puts), d.loads}
}

// coldFigure requests one figure with a fresh seed each time, so every
// request misses the store and computes.
type coldFigure struct {
	id    string
	query string              // fixed query parameters
	opts  experiments.Options // the options serve binds for query, seed aside
	check func(experiments.Figure) error
	seed  int64
}

func (c *coldFigure) begin(seed int64) { c.seed = seed }

// warmUp makes one request at a seed outside the timed sequence, so each
// run's set-ups pay the first-request costs of a fresh server and store.
func (c *coldFigure) warmUp(h *harness, rep int) error {
	_, err := c.request(h, c.seed*1_000_000+500_000+int64(rep))
	return err
}

func (c *coldFigure) step(h *harness, i int) (op, error) {
	return c.request(h, c.seed*1_000_000+int64(i))
}

func (c *coldFigure) request(h *harness, figSeed int64) (op, error) {
	path := fmt.Sprintf("/figures/%s?%s&seed=%d", c.id, c.query, figSeed)
	resp, s, err := h.exchange("GET", path, "")
	o := op{lat: resp.lat, requests: 1, counts: figureCounts(s.delta)}
	if err != nil {
		return o, err
	}
	if resp.cache != "miss" {
		return o, fmt.Errorf("%s: X-Casq-Cache %q, want miss", path, resp.cache)
	}
	var fig experiments.Figure
	if err := json.Unmarshal(resp.body, &fig); err != nil {
		return o, fmt.Errorf("%s: decode: %w", path, err)
	}
	if err := c.check(fig); err != nil {
		return o, fmt.Errorf("%s: %w", path, err)
	}
	if h.traced {
		opts := c.opts
		opts.Seed = figSeed
		if err := timeKey(h, &s, sweep.Cell{ID: c.id, Opts: opts}, resp.body); err != nil {
			return o, err
		}
		fig := h.lastFig.Load()
		start := time.Now()
		if _, err := json.Marshal(*fig); err != nil {
			return o, err
		}
		s.moved["json"] = time.Since(start)
		o.samples = []sample{s}
	}
	return o, nil
}

// timeKey calls sweep.Cell.Key again for a traced request's cell and
// records its time; the key must address the bytes the request returned.
func timeKey(h *harness, s *sample, cell sweep.Cell, body []byte) error {
	start := time.Now()
	key, err := cell.Key()
	d := time.Since(start)
	if err != nil {
		return err
	}
	if data, ok, err := h.store.Get(key); err != nil || !ok || !bytes.Equal(data, body) {
		return fmt.Errorf("%s: re-derived cell key does not address the served bytes", cell.ID)
	}
	s.moved = map[string]time.Duration{"sweep": d}
	return nil
}

// summarize checks that every request did the same work: each is a miss
// of one fixed-size computation.
func (c *coldFigure) summarize(t *tally) error {
	if t.differ >= 0 {
		return fmt.Errorf("request %d counts differ from request 0 counts %v", t.differ, t.first)
	}
	fmt.Printf("counts per request (jobs instances shots puts backend-loads): %v on all %d requests\n",
		t.first, t.n)
	return nil
}

// checkFig8 holds on any seed: four layer fidelities in (0, 1], with
// CA-EC above bare twirling.
func checkFig8(fig experiments.Figure) error {
	if len(fig.Series) != 1 || len(fig.Series[0].Y) != 4 {
		return fmt.Errorf("fig8: want one series of 4 LFs, got %d series", len(fig.Series))
	}
	lf := fig.Series[0].Y
	for _, v := range lf {
		if !(v > 0 && v <= 1) {
			return fmt.Errorf("fig8: LF %v outside (0, 1]", v)
		}
	}
	if !(lf[3] > lf[0]) {
		return fmt.Errorf("fig8: CA-EC LF %v not above twirled LF %v", lf[3], lf[0])
	}
	return nil
}

// checkFigC1 holds on any seed: six strategy series, and every bin at
// coupling distance >= 3 below the figure's sparse threshold 5/sqrt(shots).
func checkFigC1(fig experiments.Figure) error {
	if len(fig.Series) != 6 {
		return fmt.Errorf("figC1: want 6 series, got %d", len(fig.Series))
	}
	thr := 5 / math.Sqrt(figC1Shots)
	for _, s := range fig.Series {
		for k, x := range s.X {
			if x >= 3 && !(s.Y[k] < thr) {
				return fmt.Errorf("figC1: %s bin at distance %v has mean |corr| %v >= %v", s.Label, x, s.Y[k], thr)
			}
		}
	}
	return nil
}

// warmFigures serves store hits on a working set of catalog figures that
// set-up computed, with Zipf popularity over one keep-alive connection.
type warmFigures struct {
	entries  []warmEntry
	order    []int    // set-up order
	expected [][]byte // bytes each entry's set-up request returned
	rng      *rand.Rand
	pop      []float64 // cumulative popularity of ranks 0..len(entries)-1
	rank     []int     // popularity rank -> entry, a permutation
}

type warmEntry struct {
	path string
	cell sweep.Cell
}

func (w *warmFigures) begin(seed int64) {
	w.entries = w.entries[:0]
	for j := 0; j < warmSeeds; j++ {
		for _, id := range warmSpecs() {
			opts := experiments.FastOptions()
			opts.Shots, opts.Instances, opts.MaxDepth = 16, 2, 2
			opts.Seed = seed*1000 + int64(j)
			w.entries = append(w.entries, warmEntry{
				path: fmt.Sprintf("/figures/%s?fast=1&shots=16&instances=2&maxdepth=2&seed=%d", id, opts.Seed),
				cell: sweep.Cell{ID: id, Opts: opts},
			})
		}
	}
	if len(w.expected) != len(w.entries) {
		w.expected = make([][]byte, len(w.entries))
	}
	w.rng = rand.New(rand.NewSource(seed))
	w.order = w.rng.Perm(len(w.entries))
	// Popularity rank r is always a figure of spec r mod the spec count,
	// so every seed requests the same mix of figure kinds and payload
	// sizes; the seed permutes which of the spec's figures holds each of
	// its ranks. Entry j*nspecs+s is seed j of spec s.
	nspecs := len(warmSpecs())
	perms := make([][]int, nspecs)
	for k := range perms {
		perms[k] = w.rng.Perm(warmSeeds)
	}
	w.rank = w.rank[:0]
	for r := range w.entries {
		w.rank = append(w.rank, perms[r%nspecs][r/nspecs]*nspecs+r%nspecs)
	}
	w.pop = zipfCDF(len(w.entries), warmZipfS)
}

// zipfCDF returns the cumulative distribution of a Zipf law with exponent
// s over ranks 0..n-1: P(r) proportional to 1/(r+1)^s. math/rand's Zipf
// needs s > 1, and measured request popularity is flatter than that.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// isPermutation reports whether p holds each of 0..len(p)-1 once.
func isPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// warmSpecs is the catalog minus fig8, whose reduced-option miss alone
// costs more than the rest of the working set (its cold path is the fig8
// workload), and fig7d, which is derived from fig7c through the cache.
func warmSpecs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if sp, _ := experiments.Lookup(id); id != "fig8" && sp.DerivesFrom == "" {
			ids = append(ids, id)
		}
	}
	return ids
}

func (w *warmFigures) warmUp(h *harness, rep int) error {
	if !isPermutation(w.rank) {
		return fmt.Errorf("popularity ranks do not map one-to-one onto the %d figures", len(w.entries))
	}
	for _, i := range w.order {
		resp, _, err := h.exchange("GET", w.entries[i].path, "")
		if err != nil {
			return err
		}
		if w.expected[i] == nil {
			w.expected[i] = resp.body
		} else if !bytes.Equal(resp.body, w.expected[i]) {
			return fmt.Errorf("%s: set-up bytes differ between set-ups", w.entries[i].path)
		}
	}
	return nil
}

func (w *warmFigures) step(h *harness, _ int) (op, error) {
	r, _ := slices.BinarySearch(w.pop, w.rng.Float64())
	i := w.rank[r]
	e := w.entries[i]
	resp, s, err := h.exchange("GET", e.path, "")
	o := op{lat: resp.lat, requests: 1, counts: figureCounts(s.delta)}
	if err != nil {
		return o, err
	}
	if resp.cache != "hit" {
		return o, fmt.Errorf("%s: X-Casq-Cache %q, want hit", e.path, resp.cache)
	}
	if !bytes.Equal(resp.body, w.expected[i]) {
		return o, fmt.Errorf("%s: hit bytes differ from the set-up miss", e.path)
	}
	if h.traced {
		if err := timeKey(h, &s, e.cell, resp.body); err != nil {
			return o, err
		}
		o.samples = []sample{s}
	}
	return o, nil
}

// summarize checks that no hit computed or wrote anything.
func (w *warmFigures) summarize(t *tally) error {
	tot := t.totals
	fmt.Printf("counts over %d requests (jobs instances shots puts backend-loads): %v\n", t.n, tot)
	if tot[0]+tot[1]+tot[2]+tot[3] != 0 {
		return fmt.Errorf("store hits ran jobs or wrote the store: %v", tot)
	}
	return nil
}

// layoutDrift runs cold layout searches over the seed-shuffled probe grid,
// each followed by a drift report to a monitor created earlier on the same
// server. Every layoutChunk searches run on a fresh server, and a pass over
// the grid searches each probe once, so every search is a first request
// for its probe; the short chunks keep the server's monitor count, and with
// it the resident set, from swinging with the run's position in a pass.
type layoutDrift struct {
	rng     *rand.Rand
	pass    []probe // current pass order
	created []probe // probes searched on the current server
	// seen pins each probe's search counts: a first search of a probe on
	// a fresh monitor must repeat them exactly.
	seen map[probe][2]int64
}

type probe struct{ qubits, depth int }

const layoutBackend = "heavyhex127"

func (l *layoutDrift) begin(seed int64) {
	l.rng = rand.New(rand.NewSource(seed))
	l.pass, l.created = nil, nil
	if l.seen == nil {
		l.seen = map[probe][2]int64{}
	}
}

// grid is every probe shape the layout routes accept.
var grid = func() []probe {
	var g []probe
	for q := 2; q <= 16; q++ {
		for d := 1; d <= 32; d++ {
			g = append(g, probe{q, d})
		}
	}
	return g
}()

// warmUp runs one chunk of a separate shuffle, then installs a fresh
// server so the timed searches stay cold.
func (l *layoutDrift) warmUp(h *harness, rep int) error {
	w := &layoutDrift{seen: l.seen}
	w.begin(int64(rep+1) * -7919)
	for i := 0; i < layoutChunk; i++ {
		if _, err := w.step(h, i); err != nil {
			return err
		}
	}
	h.resetServer()
	return nil
}

// maxDrift is the largest drift magnitude POST /backends/{id}/drift
// accepts. No drift distribution has been measured for these devices, so
// each magnitude is drawn uniformly from the whole accepted range (0, 1];
// the monitor's own thresholds then split the decisions into the
// surrogate-only, exact re-score and recompile tiers.
const maxDrift = 1.0

func (l *layoutDrift) drift() float64 {
	return maxDrift * (1 - l.rng.Float64())
}

type layoutResp struct {
	Region []int `json:"region"`
	Search *struct {
		Enumerated  int     `json:"enumerated"`
		ExactScored int     `json:"exact_scored"`
		PruneRatio  float64 `json:"prune_ratio"`
	} `json:"search"`
}

type driftResp struct {
	Decision *struct {
		ExactChecked bool  `json:"exact_checked"`
		Recompiled   bool  `json:"recompiled"`
		Region       []int `json:"region"`
	} `json:"decision"`
}

func (l *layoutDrift) step(h *harness, i int) (op, error) {
	if i%len(grid) == 0 {
		l.pass = append(l.pass[:0], grid...)
		l.rng.Shuffle(len(l.pass), func(a, b int) { l.pass[a], l.pass[b] = l.pass[b], l.pass[a] })
	}
	if i%layoutChunk == 0 {
		if i > 0 {
			h.resetServer()
		}
		l.created = l.created[:0]
	}
	p := l.pass[i%len(grid)]
	var o op

	path := fmt.Sprintf("/backends/%s/layout?qubits=%d&depth=%d", layoutBackend, p.qubits, p.depth)
	resp, s, err := h.exchange("GET", path, "")
	o.lat, o.requests = resp.lat, 1
	if err != nil {
		return o, err
	}
	var lr layoutResp
	if err := json.Unmarshal(resp.body, &lr); err != nil {
		return o, fmt.Errorf("%s: decode: %w", path, err)
	}
	if len(lr.Region) != p.qubits || lr.Search == nil || lr.Search.Enumerated < 1 {
		return o, fmt.Errorf("%s: region of %d qubits (want %d) or no search report", path, len(lr.Region), p.qubits)
	}
	counts := [2]int64{int64(lr.Search.Enumerated), int64(lr.Search.ExactScored)}
	if prev, ok := l.seen[p]; ok && prev != counts {
		return o, fmt.Errorf("%s: search counts %v differ from an earlier search of the probe %v", path, counts, prev)
	}
	l.seen[p] = counts
	o.counts = append(o.counts, counts[0], counts[1])
	if h.traced {
		s.kind, s.rest = "search", "layout"
		s.prune = lr.Search.PruneRatio
		s.search = counts
		if s.serveSelf, err = h.serveDirect(path); err != nil {
			return o, err
		}
		o.samples = append(o.samples, s)
	}
	l.created = append(l.created, p)

	t := l.created[l.rng.Intn(len(l.created))]
	body := fmt.Sprintf(`{"qubits":%d,"depth":%d,"seed":%d,"drift":%v}`, t.qubits, t.depth, l.rng.Int63(), l.drift())
	dpath := fmt.Sprintf("/backends/%s/drift", layoutBackend)
	resp, s, err = h.exchange("POST", dpath, body)
	o.lat += resp.lat
	o.requests++
	if err != nil {
		return o, err
	}
	var dr driftResp
	if err := json.Unmarshal(resp.body, &dr); err != nil {
		return o, fmt.Errorf("%s: decode: %w", dpath, err)
	}
	d := dr.Decision
	if d == nil || len(d.Region) != t.qubits {
		return o, fmt.Errorf("%s %s: no decision or wrong region size", dpath, body)
	}
	if d.Recompiled && !d.ExactChecked {
		return o, fmt.Errorf("%s %s: recompiled without an exact check", dpath, body)
	}
	o.counts = append(o.counts, b2i(d.ExactChecked), b2i(d.Recompiled))
	if h.traced {
		s.kind, s.rest = "drift", "layout"
		s.exact, s.recompiled = d.ExactChecked, d.Recompiled
		tpath := fmt.Sprintf("/backends/%s/layout?qubits=%d&depth=%d", layoutBackend, t.qubits, t.depth)
		if s.serveSelf, err = h.serveDirect(tpath); err != nil {
			return o, err
		}
		o.samples = append(o.samples, s)
	}
	return o, nil
}

// summarize prints the run totals and requires every monitor tier to have
// occurred; each search's counts were checked against earlier searches of
// its probe as they ran.
func (l *layoutDrift) summarize(t *tally) error {
	tot := t.totals
	tiers := [3]int64{int64(t.n) - tot[2], tot[2] - tot[3], tot[3]}
	fmt.Printf("counts over %d searches: candidates %d, exact-scored %d; drifts: %d surrogate-only, %d exact re-score, %d recompile\n",
		t.n, tot[0], tot[1], tiers[0], tiers[1], tiers[2])
	for k, name := range []string{"surrogate-only", "exact re-score", "recompile"} {
		if tiers[k] == 0 {
			return fmt.Errorf("no %s drift decision in %d drifts", name, t.n)
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
