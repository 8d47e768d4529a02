package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryIdempotent pins the no-ceremony contract: asking for the
// same family twice returns the same instrument.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total", "x") != r.Counter("a_total", "x") {
		t.Error("Counter not idempotent")
	}
	if r.Histogram("h_seconds", "x", nil) != r.Histogram("h_seconds", "x", nil) {
		t.Error("Histogram not idempotent")
	}
	v := r.CounterVec("b_total", "x", "k")
	if v.With("1") != v.With("1") {
		t.Error("CounterVec child not idempotent")
	}
	hv := r.HistogramVec("hv_seconds", "x", "k", nil)
	if hv.With("1") != hv.With("1") {
		t.Error("HistogramVec child not idempotent")
	}
}

// TestRegistryConcurrent is the -race battery: parallel counter and
// histogram writers (including vec-child creation) racing
// concurrent exposition and snapshot readers.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("casq_test_ops_total", "ops")
	h := r.Histogram("casq_test_seconds", "latency", nil)
	cv := r.CounterVec("casq_test_by_state_total", "by state", "state")
	hv := r.HistogramVec("casq_test_lat_seconds", "latency by endpoint", "endpoint", nil)

	const writers, perWriter = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			state := []string{"ok", "fail", "skip"}[w%3]
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(float64(i) * 1e-6)
				cv.With(state).Inc()
				hv.With("figures").Observe(float64(i) * 1e-5)
			}
		}(w)
	}
	// Concurrent exposition + snapshot readers.
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var b bytes.Buffer
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				cv.Snapshot()
				h.Quantile(0.99)
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	snap := cv.Snapshot()
	var total uint64
	for _, v := range snap {
		total += v
	}
	if total != writers*perWriter {
		t.Errorf("vec total = %d, want %d", total, writers*perWriter)
	}
}

// TestPrometheusRoundTrip pins the exposition format: everything the
// registry writes must parse back with the same values, and histogram
// series must carry cumulative buckets plus _sum and _count.
func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("casq_jobs_total", "jobs").Add(7)
	h := r.Histogram("casq_lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3.0) // +Inf bucket
	cv := r.CounterVec("casq_cells_total", "cells", "state")
	cv.With("done").Add(4)
	cv.With("failed").Inc()
	hv := r.HistogramVec("casq_req_seconds", "req latency", "endpoint", []float64{0.01, 0.1})
	hv.With("figures").Observe(0.02)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseProm: %v\n%s", err, text)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		for _, k := range []string{"state", "endpoint", "le"} {
			if v := s.Label(k); v != "" {
				key += "|" + k + "=" + v
			}
		}
		byKey[key] = s.Value
	}
	want := map[string]float64{
		"casq_jobs_total":                                  7,
		"casq_lat_seconds_bucket|le=0.001":                 1,
		"casq_lat_seconds_bucket|le=0.01":                  1,
		"casq_lat_seconds_bucket|le=0.1":                   2,
		"casq_lat_seconds_bucket|le=+Inf":                  3,
		"casq_lat_seconds_count":                           3,
		"casq_cells_total|state=done":                      4,
		"casq_cells_total|state=failed":                    1,
		"casq_req_seconds_bucket|endpoint=figures|le=0.1":  1,
		"casq_req_seconds_bucket|endpoint=figures|le=+Inf": 1,
		"casq_req_seconds_count|endpoint=figures":          1,
	}
	for k, v := range want {
		if got, ok := byKey[k]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v (present=%v), want %v\n%s", k, got, ok, v, text)
		}
	}
	if sum := byKey["casq_lat_seconds_sum"]; math.Abs(sum-3.0505) > 1e-9 {
		t.Errorf("sum = %v, want 3.0505", sum)
	}
	// HELP/TYPE headers present for each family.
	for _, fam := range []string{"casq_jobs_total", "casq_lat_seconds", "casq_req_seconds"} {
		if !strings.Contains(text, "# TYPE "+fam+" ") {
			t.Errorf("missing TYPE header for %s", fam)
		}
	}
}

// Quantile estimates the q-quantile (q in [0,1]) of h in process: it is
// what HistogramQuantile's estimate from a parsed scrape is checked
// against.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return bucketQuantile(q, h.bounds, counts, total)
}

// TestQuantile pins the interpolation: a uniform distribution over
// [0, 100ms) in fine buckets puts p50 near 50ms and p90 near 90ms, and
// the parsed-scrape path (HistogramQuantile) agrees with the in-process
// one (Histogram.Quantile).
func TestQuantile(t *testing.T) {
	r := NewRegistry()
	bounds := make([]float64, 100)
	for i := range bounds {
		bounds[i] = float64(i+1) * 0.001
	}
	h := r.Histogram("casq_q_seconds", "q", bounds)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) * 1e-5) // 0 .. 0.1s uniform
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 0.05}, {0.9, 0.09}, {0.99, 0.099}} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 0.002 {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&b)
	if err != nil {
		t.Fatal(err)
	}
	var buckets []Sample
	for _, s := range samples {
		if s.Name == "casq_q_seconds_bucket" {
			buckets = append(buckets, s)
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got, want := HistogramQuantile(q, buckets), h.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("parsed quantile(%v) = %v, in-process = %v", q, got, want)
		}
	}
}

// TestLatencyBucketsReach100s: the default latency buckets end at 100 s,
// so a figure that takes 30 s reads a p99 above 1 s through a scrape
// rather than clamping to a bound at 1 s.
func TestLatencyBucketsReach100s(t *testing.T) {
	bounds := LatencyBuckets()
	if last := bounds[len(bounds)-1]; last < 100 {
		t.Fatalf("last latency bound %v s, want at least 100 s", last)
	}
	r := NewRegistry()
	r.Histogram("casq_slow_seconds", "slow", nil).Observe(30)
	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseProm(&b)
	if err != nil {
		t.Fatal(err)
	}
	var buckets []Sample
	for _, s := range samples {
		if s.Name == "casq_slow_seconds_bucket" {
			buckets = append(buckets, s)
		}
	}
	if p99 := HistogramQuantile(0.99, buckets); p99 <= 1 {
		t.Errorf("p99 of one 30 s observation = %v s, want above 1 s", p99)
	}
}

// TestCounterZeroAlloc pins the metrics hot path: an increment must not
// allocate (it sits on the serve request path and in exec workers).
func TestCounterZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("casq_alloc_total", "x")
	h := r.Histogram("casq_alloc_seconds", "x", nil)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocs = %v", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(1e-3) }); n != 0 {
		t.Errorf("Histogram.Observe allocs = %v", n)
	}
}

// TestNoopTracerZeroAlloc pins the disabled-path contract: a nil
// *Tracer must cost zero allocations through the full span lifecycle,
// so span sites can stay compiled into the engine hot loops.
func TestNoopTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("x").WithLane(3).WithTrace(42)
		sp.End()
		sp2 := tr.StartTrace("y", 7)
		sp2.End()
	})
	if n != 0 {
		t.Errorf("no-op tracer allocs = %v, want 0", n)
	}
}

// TestTracerRecords pins basic span recording and the monotonic clock.
func TestTracerRecords(t *testing.T) {
	tr := NewTracer()
	outer := tr.Start("outer").WithLane(1)
	time.Sleep(2 * time.Millisecond)
	inner := tr.Start("inner").WithLane(1).WithTrace(99)
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	// End order: inner first.
	in, out := ev[0], ev[1]
	if in.Name != "inner" || out.Name != "outer" {
		t.Fatalf("names = %q, %q", in.Name, out.Name)
	}
	if in.Trace != 99 || in.Lane != 1 {
		t.Errorf("inner = %+v", in)
	}
	if in.Start < out.Start || in.Start+in.Dur > out.Start+out.Dur {
		t.Errorf("inner [%d,%d] not nested in outer [%d,%d]",
			in.Start, in.Start+in.Dur, out.Start, out.Start+out.Dur)
	}
	if in.Dur < int64(time.Millisecond) {
		t.Errorf("inner dur = %v, want >= 1ms", time.Duration(in.Dur))
	}
}

// TestChromeTraceSchema validates the exporter against the Chrome
// trace-event schema: an object with a traceEvents array of complete
// ("X") events carrying name/ph/ts/dur/pid/tid, with nesting preserved
// in the timestamps — the shape chrome://tracing and Perfetto load.
func TestChromeTraceSchema(t *testing.T) {
	tr := NewTracer()
	job := tr.Start("exec.job")
	inst := tr.Start("exec.instance").WithLane(1).WithTrace(7)
	pass := tr.Start("pass:layout.select").WithLane(1)
	time.Sleep(time.Millisecond)
	pass.End()
	eng := tr.Start("stab.counts").WithLane(1)
	eng.End()
	inst.End()
	job.End()

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	spans := map[string][2]float64{}
	for _, e := range doc.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil || e.Tid == nil {
			t.Fatalf("event missing required keys: %+v", e)
		}
		switch e.Ph {
		case "M": // metadata (process/thread names)
			continue
		case "X":
			if e.Ts == nil || e.Dur == nil {
				t.Fatalf("complete event missing ts/dur: %+v", e)
			}
			spans[e.Name] = [2]float64{*e.Ts, *e.Ts + *e.Dur}
		default:
			t.Fatalf("unexpected phase %q", e.Ph)
		}
	}
	for _, name := range []string{"exec.job", "exec.instance", "pass:layout.select", "stab.counts"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("span %q missing from trace", name)
		}
	}
	within := func(in, out string) {
		i, o := spans[in], spans[out]
		if i[0] < o[0] || i[1] > o[1] {
			t.Errorf("%s [%v,%v] not nested in %s [%v,%v]", in, i[0], i[1], out, o[0], o[1])
		}
	}
	within("pass:layout.select", "exec.instance")
	within("stab.counts", "exec.instance")
	within("exec.instance", "exec.job")
	// Trace ID propagated into args.
	found := false
	for _, e := range doc.TraceEvents {
		if e.Name == "exec.instance" && e.Args["trace"] == "0000000000000007" {
			found = true
		}
	}
	if !found {
		t.Error("trace ID missing from exec.instance args")
	}
}

// TestNextTraceID pins uniqueness and non-zero-ness of generated IDs.
func TestNextTraceID(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NextTraceID()
		if id == 0 || seen[id] {
			t.Fatalf("trace ID %d duplicate or zero at i=%d", id, i)
		}
		seen[id] = true
	}
}
