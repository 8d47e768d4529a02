// Command perfbench is casq's end-to-end benchmark. It hosts the real
// serve.Server handler on a loopback listener inside its own process, over
// a fresh disk store, drives one seeded workload through it as a closed
// loop with one request in flight, checks every response, and prints the
// workload's metrics. The process runs on one core (GOMAXPROCS=1), so the
// numbers measure the program rather than how shared cores were scheduled.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig8-eagle127-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of a timed run, its times
// scaled to a reference host speed by a probe run between operations (see
// probe.go). With --trace 1 it runs the same request sequence untraced and
// then traced, splits each traced request across casq's modules by span
// self time, and prints the per-layer metrics, the attribution closure and
// the tracing overhead. The last line of standard output is one JSON object,
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when a check failed; a set-up failure exits 2 without one.
// See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"casq/internal/experiments"
)

const (
	// setupReps is how many times a run sets up; it reports the median.
	setupReps = 3
	// warmSeeds × the warm specs is the figures-warm working set, about
	// twice the store's 256-entry memory tier.
	warmSeeds = 32
	// warmZipfS is the Zipf exponent of figure popularity: YCSB's default
	// request distribution for cache and key-value benchmarks (Cooper et
	// al., SoCC 2010). Breslau et al. (INFOCOM 1999) measured 0.64-0.83 on
	// six web-proxy traces, so real popularity is no more skewed than this.
	warmZipfS = 0.99
	// layoutChunk is the searches per fresh server on the layout workload,
	// and the untimed steps of its set-up; it divides the 480-probe grid.
	layoutChunk = 48
	// figC1Shots puts the figure's sparse threshold 5/sqrt(shots) at 0.039.
	figC1Shots = 16384
)

// minBeyondTail is how many operations a run should complete beyond its
// tail percentile; a run with fewer is flagged.
const minBeyondTail = 10

// workload is one named request mix. tail is the latency percentile
// reported as latency_tail_ms: the highest that keeps at least
// minBeyondTail samples beyond it at the benchmark's run length.
type workload struct {
	name string
	tail float64
	mix  requestMix
}

// ledgerJSON records each workload's request mix, why it was chosen, its
// tail percentile and the layers it should and should not move, plus the
// default and held-out seeds.
//
//go:embed workloads.json
var ledgerJSON []byte

type ledger struct {
	DefaultSeed int64 `json:"default_seed"`
	Workloads   []struct {
		Name string  `json:"name"`
		Tail float64 `json:"tail_percentile"`
	} `json:"workloads"`
}

func readLedger() ledger {
	var l ledger
	if err := json.Unmarshal(ledgerJSON, &l); err != nil {
		fatalf("workloads.json: %v", err)
	}
	return l
}

func workloads() []workload {
	ws := defineWorkloads()
	tails := map[string]float64{}
	for _, e := range readLedger().Workloads {
		tails[e.Name] = e.Tail
	}
	for i := range ws {
		if ws[i].tail = tails[ws[i].name]; ws[i].tail == 0 {
			fatalf("workloads.json has no tail percentile for %s", ws[i].name)
		}
	}
	return ws
}

func defineWorkloads() []workload {
	fig8 := experiments.FastOptions()
	fig8.Backend, fig8.Engine = "eagle127", "stab"
	figC1 := fig8
	figC1.Shots = figC1Shots
	return []workload{
		{name: "fig8-eagle127-cold", mix: &coldFigure{id: "fig8",
			query: "fast=1&backend=eagle127&engine=stab", opts: fig8, check: checkFig8}},
		{name: "figC1-eagle127-cold", mix: &coldFigure{id: "figC1",
			query: fmt.Sprintf("fast=1&backend=eagle127&engine=stab&shots=%d", figC1Shots), opts: figC1, check: checkFigC1}},
		{name: "figures-warm", mix: &warmFigures{}},
		{name: "layout-drift-heavyhex127", mix: &layoutDrift{}},
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", readLedger().DefaultSeed, "workload seed; the request sequence derives from it")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer attribution instead of the timed run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for stores, count records and trace files")
	flag.Parse()

	runtime.GOMAXPROCS(1)
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		var names []string
		for _, c := range workloads() {
			names = append(names, c.name)
		}
		fatalf("unknown workload %q (known: %v)", *name, names)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1, got %d", *trace)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, *seed, dur, *out)
	} else {
		res, err = timedRun(w, *seed, dur, *out)
	}
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// phase is one closed-loop pass over the request sequence. Nothing is
// kept per operation beyond its latency, so the benchmark's own heap stays
// flat while the program runs.
type phase struct {
	lat      latHist // operations that passed every check
	requests int
	failed   int
	errs     []error // the first few failures
	elapsed  time.Duration
	rt       rtStats
	rss      []float64 // resident set samples (MB), one per rssEvery at most
	counts   *tally

	// With a prober: the time of every operation, probes left out, and
	// the same at the reference host speed.
	work, refWork time.Duration
	refLat        latHist // lat at the reference host speed
}

// held is an operation timed since the last probe batch, waiting for the
// host speed the next batch measures.
type held struct {
	lat, work time.Duration
	ok        bool // passed every check
}

// release adds held operations at the reference host speed.
func (ph *phase) release(ops []held, scale float64) {
	for _, o := range ops {
		if o.ok {
			ph.refLat.add(time.Duration(float64(o.lat) * scale))
		}
		ph.refWork += time.Duration(float64(o.work) * scale)
	}
}

// rssEvery spaces the resident-set samples of a timed phase.
const rssEvery = 20 * time.Millisecond

// setUp builds a fresh harness and runs the workload's warm-up, rep
// times, keeping the last harness; it returns each set-up's duration. A
// non-nil pr probes the host after each set-up, outside its time, and
// ref gets each duration at the reference host speed.
func setUp(w *workload, seed int64, out string, traced bool, reps int, pr *prober) (h *harness, times, ref []float64, err error) {
	for rep := 0; rep < reps; rep++ {
		if h != nil {
			h.close()
		}
		start := time.Now()
		if h, err = newHarness(out, traced); err != nil {
			return nil, nil, nil, err
		}
		w.mix.begin(seed)
		if err := w.mix.warmUp(h, rep); err != nil {
			h.close()
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		// Return the warm-up's garbage to the OS, so the timed phase's
		// resident set is its own rather than how far the background
		// scavenger got with the set-up's heap.
		debug.FreeOSMemory()
		d := time.Since(start)
		times = append(times, d.Seconds())
		if pr != nil {
			ref = append(ref, d.Seconds()*pr.settle(d))
		}
	}
	return h, times, ref, nil
}

// run drives the timed sequence for dur. A failed check is counted and the
// loop goes on; the run then reports correct=false. A non-nil agg takes
// the traced requests; a non-nil pr probes the host between operations.
func run(h *harness, w *workload, seed int64, dur time.Duration, agg *traceAgg, pr *prober) phase {
	w.mix.begin(seed)
	ph := phase{counts: newTally()}
	var waiting []held
	rt0 := readRuntime()
	start := time.Now()
	if agg != nil {
		agg.file.start = start
	}
	var sampled time.Time
	for i := 0; time.Since(start) < dur; i++ {
		if time.Since(sampled) >= rssEvery {
			sampled = time.Now()
			ph.rss = append(ph.rss, rssMB())
		}
		opStart := time.Now()
		o, err := w.mix.step(h, i)
		work := time.Since(opStart)
		ph.work += work
		if pr != nil {
			waiting = append(waiting, held{o.lat, work, err == nil})
			if scale, ok := pr.after(work); ok {
				ph.release(waiting, scale)
				waiting = waiting[:0]
			}
		}
		ph.requests += o.requests
		if err != nil {
			ph.failed += max(o.requests, 1)
			if len(ph.errs) < 5 {
				ph.errs = append(ph.errs, err)
			}
			continue
		}
		ph.lat.add(o.lat)
		ph.counts.add(o.counts)
		if agg != nil {
			agg.add(o)
		}
	}
	ph.elapsed = time.Since(start)
	if len(waiting) > 0 {
		ph.release(waiting, pr.settle(0))
	}
	ph.rt = readRuntime().sub(rt0)
	ph.counts.mark()
	return ph
}

// verify reports check failures and runs the exact-count tripwire; it
// returns false when the run must not pass.
func verify(w *workload, seed int64, out string, phases ...phase) bool {
	ok := true
	for _, ph := range phases {
		for _, err := range ph.errs {
			fmt.Printf("FAILED check: %v\n", err)
		}
		if ph.failed > 0 || ph.counts.n == 0 {
			fmt.Printf("FAILED: %d of %d requests failed; %d operations passed\n", ph.failed, ph.requests, ph.counts.n)
			ok = false
		}
	}
	if !ok {
		return false
	}
	first := phases[0].counts.checkpoints
	for _, ph := range phases[1:] {
		if err := compareCounts(first, ph.counts.checkpoints); err != nil {
			fmt.Printf("FAILED tripwire: untraced vs traced phase: %v\n", err)
			ok = false
		}
	}
	for _, ph := range phases {
		if err := w.mix.summarize(ph.counts); err != nil {
			fmt.Printf("FAILED tripwire: %v\n", err)
			ok = false
		}
	}
	msg, err := checkRecord(out, w.name, seed, first)
	if err != nil {
		fmt.Printf("FAILED tripwire: %v\n", err)
		return false
	}
	fmt.Println("tripwire:", msg)
	return ok
}

func timedRun(w *workload, seed int64, dur time.Duration, out string) (result, error) {
	pr, err := newProber()
	if err != nil {
		return result{}, err
	}
	h, setups, refSetups, err := setUp(w, seed, out, false, setupReps, pr)
	if err != nil {
		return result{}, err
	}
	ph := run(h, w, seed, dur, nil, pr)
	h.close()
	fmt.Printf("workload %s seed %d: %d operations, %d requests in %.2f s (one client, closed loop, GOMAXPROCS=1)\n",
		w.name, seed, ph.lat.n, ph.requests, ph.elapsed.Seconds())
	ok := verify(w, seed, out, ph)

	lat := &ph.lat
	beyond := lat.n - int(math.Ceil(w.tail/100*float64(lat.n)))
	done := ph.requests - ph.failed
	raw := map[string]float64{
		"setup_s":         percentile(setups, 50),
		"latency_p50_ms":  lat.percentile(50),
		"latency_tail_ms": lat.percentile(w.tail),
		"throughput_rps":  float64(done) / ph.work.Seconds(),
	}
	m := map[string]metric{
		"setup_s":          {percentile(refSetups, 50), "s"},
		"latency_p50_ms":   {ph.refLat.percentile(50), "ms"},
		"latency_tail_ms":  {ph.refLat.percentile(w.tail), "ms"},
		"throughput_rps":   {float64(done) / ph.refWork.Seconds(), "1/s"},
		"alloc_mb_per_req": {ph.rt.allocBytes / float64(max(ph.requests, 1)) / 1e6, "MB"},
		"rss_mb":           {percentile(ph.rss, 50) - probeMB, "MB"},
	}
	fmt.Printf("host probe: %d probes, median %.4f ms (p25 %.4f, p75 %.4f) against the reference %.1f ms\n",
		len(pr.ms), percentile(pr.ms, 50), percentile(pr.ms, 25), percentile(pr.ms, 75), probeRef)
	for _, k := range sortedKeys(raw) {
		fmt.Printf("as measured on this host: %-16s %14.4f\n", k, raw[k])
	}
	fmt.Printf("set-up times (s): %.4f\n", setups)
	fmt.Printf("latency_tail_ms is p%g over %d operations (%d beyond it)\n", w.tail, lat.n, beyond)
	if beyond < minBeyondTail {
		fmt.Printf("WARNING: fewer than %d operations beyond the tail percentile; latency_tail_ms is thin on this run\n", minBeyondTail)
	}
	fmt.Print("latency percentiles (ms):")
	for _, p := range []float64{50, 75, 90, 95, 99, 99.9} {
		fmt.Printf(" p%g %.4f", p, lat.percentile(p))
	}
	fmt.Println()
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-18s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("%-18s %14.4f %s\n", "error_ratio", float64(ph.failed)/float64(max(ph.requests, 1)), "ratio")
	return result{Correct: ok, Attempted: max(ph.requests, 1), Failed: ph.failed, Metrics: m}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
