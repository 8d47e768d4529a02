package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedRun replays the timed run's request sequence twice, each half of
// dur on a fresh server: first untraced, for the tracing overhead and the
// Go runtime's per-operation counters, then traced, for the per-layer
// split. Every per-layer metric is printed; a layer that does not run on
// the workload reads 0.
func tracedRun(w *workload, seed int64, dur time.Duration, out string) (result, error) {
	h, _, _, err := setUp(w, seed, out, false, 1, nil)
	if err != nil {
		return result{}, err
	}
	plain := run(h, w, seed, dur/2, nil, nil)
	h.close()

	if h, _, _, err = setUp(w, seed, out, true, 1, nil); err != nil {
		return result{}, err
	}
	agg := &traceAgg{self: map[string]time.Duration{}}
	traced := run(h, w, seed, dur/2, agg, nil)
	h.close()

	fmt.Printf("workload %s seed %d: %d untraced and %d traced operations (GOMAXPROCS=1)\n",
		w.name, seed, plain.lat.n, traced.lat.n)
	attempted := plain.requests + traced.requests
	if !verify(w, seed, out, plain, traced) {
		return result{Correct: false, Attempted: max(attempted, 1),
			Failed: plain.failed + traced.failed, Metrics: map[string]metric{}}, nil
	}
	m := agg.metrics(plain, traced)
	agg.printClosure(w, m)
	path := filepath.Join(out, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := agg.file.write(path); err != nil {
		return result{}, err
	}
	fmt.Println("chrome trace:", path)
	return result{Correct: true, Attempted: attempted, Failed: 0, Metrics: m}, nil
}

// traceAgg folds each traced operation into per-layer totals as it
// completes, keeping only the spans bound for the trace file.
type traceAgg struct {
	ops                            int
	self                           map[string]time.Duration
	req, loadTime                  time.Duration
	searchTime, driftTime          time.Duration
	d                              meters
	blocks, searches, drifts       int
	exactDrifts, recompiles        int
	prune, candidates, exactScored float64
	file                           traceFile
}

func (a *traceAgg) add(o op) {
	a.ops++
	for _, s := range o.samples {
		a.file.add(s)
		self := attribute(s)
		for k, v := range self {
			a.self[k] += v
		}
		a.req += s.lat
		a.d = a.d.add(s.delta)
		a.loadTime += spanTotal(s.events, "store.backend.load")
		a.blocks += spanCount(s.events, "stab.block")
		switch s.kind {
		case "search":
			a.searches++
			a.searchTime += self["layout"]
			a.prune += s.prune
			a.candidates += float64(s.search[0])
			a.exactScored += float64(s.search[1])
		case "drift":
			a.drifts++
			a.driftTime += self["layout"]
			a.exactDrifts += int(b2i(s.exact))
			a.recompiles += int(b2i(s.recompiled))
		}
	}
}

// metrics reduces the traced phase to per-layer metrics. Times are per
// operation unless named per search or per drift; the Go runtime counters
// come from the untraced phase.
func (a *traceAgg) metrics(plain, traced phase) map[string]metric {
	n := float64(a.ops)
	per := func(v float64) float64 { return v / n }
	perMS := func(t time.Duration) float64 { return ms(t) / n }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	stab := a.self["stab.program"] + a.self["stab.block"]
	pn := float64(plain.lat.n)
	m := map[string]metric{
		"serve.self_us":            {perMS(a.self["serve"]) * 1e3, "us"},
		"sweep.key_us":             {perMS(a.self["sweep"]) * 1e3, "us"},
		"store.get_us":             {per(a.d.getSec) * 1e6, "us"},
		"store.mem_hit_ratio":      {ratio(float64(a.d.gets)-float64(a.d.loads), float64(a.d.gets)), "ratio"},
		"store.backend_load_us":    {perMS(a.loadTime) * 1e3, "us"},
		"store.put_ms":             {per(a.d.putSec) * 1e3, "ms"},
		"store.puts":               {per(float64(a.d.puts)), "count"},
		"experiments.self_ms":      {perMS(a.self["experiments"]), "ms"},
		"exec.job.self_ms":         {perMS(a.self["exec.job"]), "ms"},
		"exec.instance.self_ms":    {perMS(a.self["exec.instance"]), "ms"},
		"exec.jobs":                {per(float64(a.d.jobs)), "count"},
		"exec.instances":           {per(float64(a.d.instances)), "count"},
		"exec.shots":               {per(float64(a.d.shots)), "count"},
		"pass.twirl.self_ms":       {perMS(a.self["pass.twirl"]), "ms"},
		"pass.sched.self_ms":       {perMS(a.self["pass.sched"]), "ms"},
		"pass.dd.self_ms":          {perMS(a.self["pass.dd"]), "ms"},
		"pass.ca-ec.self_ms":       {perMS(a.self["pass.ca-ec"]), "ms"},
		"stab.program.self_ms":     {perMS(a.self["stab.program"]), "ms"},
		"stab.block_ms":            {perMS(a.self["stab.block"]), "ms"},
		"stab.blocks":              {per(float64(a.blocks)), "count"},
		"stab.shots_per_s":         {ratio(float64(a.d.shots), stab.Seconds()), "1/s"},
		"layout.search_ms":         {ratio(ms(a.searchTime), float64(a.searches)), "ms"},
		"layout.drift_ms":          {ratio(ms(a.driftTime), float64(a.drifts)), "ms"},
		"layout.candidates":        {ratio(a.candidates, float64(a.searches)), "count"},
		"layout.exact_scored":      {ratio(a.exactScored, float64(a.searches)), "count"},
		"layout.prune_ratio":       {ratio(a.prune, float64(a.searches)), "ratio"},
		"layout.drift_exact_ratio": {ratio(float64(a.exactDrifts), float64(a.drifts)), "ratio"},
		"layout.recompile_ratio":   {ratio(float64(a.recompiles), float64(a.drifts)), "ratio"},
		"json.encode_ms":           {perMS(a.self["json"]), "ms"},
		"runtime.gc_cycles":        {plain.rt.gcCycles / pn, "count"},
		"runtime.gc_cpu_ms":        {plain.rt.gcCPU * 1e3 / pn, "ms"},
		"runtime.alloc_objects":    {plain.rt.allocObjects / pn, "count"},
		"trace.overhead_ratio":     {traced.lat.percentile(50) / plain.lat.percentile(50), "ratio"},
		"trace.unattributed_ratio": {ratio(float64(a.self["unattributed"]), float64(a.req)), "ratio"},
	}
	for i, t := range tierNames {
		m["layout.tier."+t+"_ms"] = metric{per(a.d.tierSec[i]) * 1e3, "ms"}
	}
	return m
}

func (m meters) add(o meters) meters {
	s := meters{
		jobs: m.jobs + o.jobs, instances: m.instances + o.instances, shots: m.shots + o.shots, puts: m.puts + o.puts,
		loads: m.loads + o.loads,
		gets:  m.gets + o.gets, getSec: m.getSec + o.getSec, putSec: m.putSec + o.putSec,
	}
	for i := range s.tierSec {
		s.tierSec[i] = m.tierSec[i] + o.tierSec[i]
	}
	return s
}

// printClosure prints each layer's self time per operation, the explicit
// unattributed remainder, and their sum against the traced request time.
func (a *traceAgg) printClosure(w *workload, m map[string]metric) {
	n := time.Duration(a.ops)
	req := a.req / n
	fmt.Printf("attribution per operation (traced; %d operations):\n", a.ops)
	var sum time.Duration
	top, topT := "", time.Duration(0)
	for _, l := range layerOrder {
		t := a.self[l] / n
		sum += t
		if t == 0 {
			continue
		}
		fmt.Printf("  %-14s %12.4f ms %6.1f%%\n", l, ms(t), 100*float64(t)/float64(req))
		if l != "unattributed" && t > topT {
			top, topT = l, t
		}
	}
	fmt.Printf("  %-14s %12.4f ms   vs traced request time %.4f ms\n", "sum", ms(sum), ms(req))
	fmt.Println("  (unattributed: request time outside serve's handler — client, loopback, net/http connection handling)")
	fmt.Printf("  Go runtime GC CPU %.4f ms per operation (untraced phase; it overlaps the layers above)\n",
		m["runtime.gc_cpu_ms"].Value)
	fmt.Printf("top self-time layer of %s: %s (%.1f%% of the traced request time)\n",
		w.name, top, 100*float64(topT)/float64(req))
	fmt.Printf("trace.overhead_ratio %.4f (traced p50 / untraced p50)\n", m["trace.overhead_ratio"].Value)
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-26s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
