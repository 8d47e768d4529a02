package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"casq/internal/obs"
)

// meters snapshots the process-wide counters the program already serves at
// GET /metrics (casq_exec_*, casq_store_*, casq_layout_tier_seconds), plus
// the benchmark's own backend counts.
type meters struct {
	jobs, instances, shots, puts uint64
	loads                        int64
	gets                         uint64
	getSec, putSec               float64
	tierSec                      [4]float64 // enumerate, static, fit, exact
}

var (
	mJobs      = obs.Default().Counter("casq_exec_jobs_total", "")
	mInstances = obs.Default().Counter("casq_exec_instances_total", "")
	mShots     = obs.Default().Counter("casq_exec_shots_total", "")
	mPuts      = obs.Default().Counter("casq_store_puts_total", "")
	mGetHit    = obs.Default().HistogramVec("casq_store_get_seconds", "", "result", nil).With("hit")
	mGetMiss   = obs.Default().HistogramVec("casq_store_get_seconds", "", "result", nil).With("miss")
	mPut       = obs.Default().Histogram("casq_store_put_seconds", "", nil)
	tierNames  = [4]string{"enumerate", "static", "fit", "exact"}
	mTiers     [4]*obs.Histogram
)

func init() {
	for i, n := range tierNames {
		mTiers[i] = obs.Default().HistogramVec("casq_layout_tier_seconds", "", "tier", nil).With(n)
	}
}

func readMeters(h *harness) meters {
	m := meters{
		jobs: mJobs.Value(), instances: mInstances.Value(), shots: mShots.Value(), puts: mPuts.Value(),
		loads:  h.backend.loads.Load(),
		gets:   mGetHit.Count() + mGetMiss.Count(),
		getSec: mGetHit.Sum() + mGetMiss.Sum(), putSec: mPut.Sum(),
	}
	for i, t := range mTiers {
		m.tierSec[i] = t.Sum()
	}
	return m
}

func (m meters) sub(o meters) meters {
	d := meters{
		jobs: m.jobs - o.jobs, instances: m.instances - o.instances, shots: m.shots - o.shots, puts: m.puts - o.puts,
		loads: m.loads - o.loads,
		gets:  m.gets - o.gets, getSec: m.getSec - o.getSec, putSec: m.putSec - o.putSec,
	}
	for i := range d.tierSec {
		d.tierSec[i] = m.tierSec[i] - o.tierSec[i]
	}
	return d
}

// sample is one traced HTTP request.
type sample struct {
	kind   string    // "", "search" or "drift"
	at     time.Time // tracer epoch
	lat    time.Duration
	events []obs.TraceEvent
	delta  meters
	// moved holds time the benchmark measured by calling a public function
	// again for this request (sweep.Cell.Key, json.Marshal); it is taken
	// out of serve's handler self time and given to its layer.
	moved map[string]time.Duration
	// serveSelf, when rest is set, is serve's own time on a route whose
	// remaining handler time belongs to layer rest (the layout routes).
	serveSelf time.Duration
	rest      string
	// Layout search and drift observations.
	prune             float64
	search            [2]int64
	exact, recompiled bool
}

// Layer names in report order. "unattributed" is the request time outside
// serve's handler (client, loopback and net/http connection handling) plus
// any span no layer claims.
var layerOrder = []string{
	"serve", "sweep", "store", "experiments", "exec.job", "exec.instance",
	"pass.twirl", "pass.sched", "pass.dd", "pass.ca-ec", "pass.other",
	"stab.program", "stab.block", "layout", "json", "unattributed",
}

// layerOf maps a span name to its layer.
func layerOf(name string) string {
	switch {
	case name == "request":
		return "unattributed"
	case name == "serve.handler":
		return "serve"
	case name == "sweep.compute", strings.HasPrefix(name, "experiment:"):
		return "experiments"
	case name == "exec.job", name == "exec.instance":
		return name
	case strings.HasPrefix(name, "pass:twirl"):
		return "pass.twirl"
	case strings.HasPrefix(name, "pass:sched"):
		return "pass.sched"
	case strings.HasPrefix(name, "pass:dd"):
		return "pass.dd"
	case name == "pass:ca-ec":
		return "pass.ca-ec"
	case strings.HasPrefix(name, "pass:"):
		return "pass.other"
	case name == "stab.block":
		return "stab.block"
	case strings.HasPrefix(name, "stab."):
		return "stab.program"
	case strings.HasPrefix(name, "store.backend."):
		return "store"
	}
	return "unattributed"
}

// attribute splits one traced request into layer self times. At one core
// with one request in flight, spans nest strictly in time, so each span's
// parent is the innermost span enclosing it, whatever its lane, and its
// self time is its duration minus its children's.
func attribute(s sample) map[string]time.Duration {
	ev := append([]obs.TraceEvent(nil), s.events...)
	sort.Slice(ev, func(a, b int) bool {
		if ev[a].Start != ev[b].Start {
			return ev[a].Start < ev[b].Start
		}
		return ev[a].Dur > ev[b].Dur
	})
	// The client observes a little more than the request span: the
	// tracer's own bookkeeping around it. It is unattributed too.
	self := map[string]time.Duration{"unattributed": s.lat - spanTotal(ev, "request")}
	var stack []obs.TraceEvent
	for _, e := range ev {
		for len(stack) > 0 && e.Start >= stack[len(stack)-1].Start+stack[len(stack)-1].Dur {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			self[layerOf(stack[len(stack)-1].Name)] -= time.Duration(e.Dur)
		}
		self[layerOf(e.Name)] += time.Duration(e.Dur)
		stack = append(stack, e)
	}
	// The store's memory tier and locking run inside serve's handler but
	// outside the backend spans; the store's own latency histograms cover
	// them.
	inStore := time.Duration((s.delta.getSec+s.delta.putSec)*1e9) - spanTotal(ev, "store.backend.")
	self["store"] += inStore
	self["serve"] -= inStore
	for layer, d := range s.moved {
		self[layer] += d
		self["serve"] -= d
	}
	if s.rest != "" {
		self[s.rest] += self["serve"] - s.serveSelf
		self["serve"] = s.serveSelf
	}
	return self
}

func spanTotal(ev []obs.TraceEvent, prefix string) time.Duration {
	var t time.Duration
	for _, e := range ev {
		if strings.HasPrefix(e.Name, prefix) {
			t += time.Duration(e.Dur)
		}
	}
	return t
}

// spanCount counts spans called name.
func spanCount(ev []obs.TraceEvent, name string) int {
	n := 0
	for _, e := range ev {
		if e.Name == name {
			n++
		}
	}
	return n
}

// traceFile collects the spans of a traced phase for one Chrome
// trace-event file, written when the run ends. It keeps the first
// maxTraceEvents spans and counts the rest.
type traceFile struct {
	start   time.Time
	events  []chromeEvent
	dropped int
}

const maxTraceEvents = 50_000

type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func (f *traceFile) add(s sample) {
	off := s.at.Sub(f.start)
	for _, e := range s.events {
		if len(f.events) >= maxTraceEvents {
			f.dropped++
			continue
		}
		f.events = append(f.events, chromeEvent{
			Name: e.Name, Ph: "X",
			Ts:  float64(off+time.Duration(e.Start)) / 1e3,
			Dur: float64(e.Dur) / 1e3, Pid: 1, Tid: e.Lane,
		})
	}
}

func (f *traceFile) write(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(map[string]any{"traceEvents": f.events, "displayTimeUnit": "ms"}); err != nil {
		out.Close()
		return err
	}
	if f.dropped > 0 {
		fmt.Printf("trace file keeps the first %d spans; %d later spans were not written\n", len(f.events), f.dropped)
	}
	return out.Close()
}
