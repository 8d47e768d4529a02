// Package obs is casq's dependency-free observability substrate. It has
// two halves. The metrics half is a concurrent registry of atomic
// counters and fixed-bucket histograms exposed in Prometheus text format,
// with p50/p90/p99 read back from a scrape — `casq serve` mounts it
// at GET /metrics, and every engine-layer package (store, exec, sweep,
// fabric, layout, serve) records into the process-wide Default registry.
// The tracing half is a lightweight span Tracer threaded through the
// compile/execute/serve stack; a nil *Tracer is the no-op path and costs
// zero allocations and a few nanoseconds per span site, so tracing can
// stay compiled into the hot loops. Recorded spans export as Chrome
// trace-event JSON (chrome://tracing, Perfetto) via WriteChromeTrace.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket distribution. Bounds are upper bucket
// edges (Prometheus `le` semantics); one extra implicit +Inf bucket
// catches the tail. Observe is lock-free: a binary search over the
// bounds plus two atomic adds.
type Histogram struct {
	bounds  []float64 // sorted upper edges, exclusive of +Inf
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// bucketQuantile interpolates a quantile from per-bucket (not
// cumulative) counts, inside the bucket that crosses the target rank —
// the same estimate Prometheus' histogram_quantile computes server-side.
// Samples in the +Inf bucket clamp to the largest finite bound.
func bucketQuantile(q float64, bounds []float64, counts []uint64, total uint64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) { // +Inf bucket: clamp
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		return lo + (bounds[i]-lo)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// LatencyBuckets spans 1µs..100s in quarter-decade steps: wide enough
// for a store hit (µs) and a 127-qubit figure compute (tens of seconds)
// on one scale, at 33 buckets. Each decade bound is exact, so the last
// is 100 s rather than a product that rounds just below it.
func LatencyBuckets() []float64 {
	out := make([]float64, 33)
	for i := range out {
		out[i] = math.Pow10(i/4-6) * math.Pow(10, float64(i%4)/4)
	}
	return out
}

// metricKind tags a family for the # TYPE exposition line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindHistogram metricKind = "histogram"
)

// family is one exposition unit: a metric name plus either a single
// unlabeled instrument or a set of labeled children.
type family struct {
	name, help, label string
	kind              metricKind
	bounds            []float64 // histogram families only

	mu       sync.RWMutex
	counter  *Counter
	hist     *Histogram
	counters map[string]*Counter   // label value -> child
	hists    map[string]*Histogram // label value -> child
}

// Registry owns a set of metric families and renders them in
// Prometheus text format. Instrument lookups are idempotent: asking for
// the same name twice returns the same instrument, so package-level
// instrumentation does not need registration ceremony.
type Registry struct {
	mu   sync.Mutex
	fams []*family // insertion order, for stable exposition
	by   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{by: map[string]*family{}} }

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default is the process-wide registry. Engine-layer packages (store,
// exec, sweep, fabric, layout) register their metrics here at init;
// `casq serve` appends it to GET /metrics after its own registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

func (r *Registry) family(name, help, label string, kind metricKind, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.by[name]; ok {
		return f
	}
	f := &family{name: name, help: help, label: label, kind: kind, bounds: bounds}
	r.by[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter returns the unlabeled counter family called name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "", kindCounter, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counter == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Histogram returns the unlabeled histogram family called name with the
// given bucket upper bounds (nil means LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	f := r.family(name, help, "", kindHistogram, bounds)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hist == nil {
		f.hist = newHistogram(f.bounds)
	}
	return f.hist
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// CounterVec returns the counter family called name labeled by label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	f := r.family(name, help, label, kindCounter, nil)
	return &CounterVec{f: f}
}

// With returns (creating on first use) the child counter for value.
func (v *CounterVec) With(value string) *Counter {
	f := v.f
	f.mu.RLock()
	c := f.counters[value]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.counters == nil {
		f.counters = map[string]*Counter{}
	}
	if c = f.counters[value]; c == nil {
		c = &Counter{}
		f.counters[value] = c
	}
	return c
}

// Snapshot returns the current value of every child, keyed by label
// value. serve uses it to rebuild the /healthz requests map.
func (v *CounterVec) Snapshot() map[string]uint64 {
	f := v.f
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make(map[string]uint64, len(f.counters))
	for k, c := range f.counters {
		out[k] = c.Value()
	}
	return out
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct{ f *family }

// HistogramVec returns the histogram family called name labeled by
// label (nil bounds means LatencyBuckets).
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	if bounds == nil {
		bounds = LatencyBuckets()
	}
	f := r.family(name, help, label, kindHistogram, bounds)
	return &HistogramVec{f: f}
}

// With returns (creating on first use) the child histogram for value.
func (v *HistogramVec) With(value string) *Histogram {
	f := v.f
	f.mu.RLock()
	h := f.hists[value]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.hists == nil {
		f.hists = map[string]*Histogram{}
	}
	if h = f.hists[value]; h == nil {
		h = newHistogram(f.bounds)
		f.hists[value] = h
	}
	return h
}

// WritePrometheus renders every family in Prometheus text exposition
// format (HELP/TYPE headers, cumulative _bucket/_sum/_count series for
// histograms). Families appear in registration order, labeled children
// in sorted label order, so the output is diffable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	f.mu.RLock()
	defer f.mu.RUnlock()
	switch f.kind {
	case kindCounter:
		if f.label == "" {
			fmt.Fprintf(b, "%s %d\n", f.name, f.counter.Value())
			return
		}
		for _, k := range sortedKeys(f.counters) {
			fmt.Fprintf(b, "%s{%s=%q} %d\n", f.name, f.label, k, f.counters[k].Value())
		}
	case kindHistogram:
		if f.label == "" {
			writeHistogram(b, f.name, "", "", f.hist)
			return
		}
		for _, k := range sortedKeys(f.hists) {
			writeHistogram(b, f.name, f.label, k, f.hists[k])
		}
	}
}

func writeHistogram(b *strings.Builder, name, label, value string, h *Histogram) {
	if h == nil {
		return
	}
	prefix := func(le string) string {
		if label == "" {
			return fmt.Sprintf(`%s_bucket{le=%q}`, name, le)
		}
		return fmt.Sprintf(`%s_bucket{%s=%q,le=%q}`, name, label, value, le)
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s %d\n", prefix(formatFloat(bound)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s %d\n", prefix("+Inf"), cum)
	suffix := ""
	if label != "" {
		suffix = fmt.Sprintf("{%s=%q}", label, value)
	}
	fmt.Fprintf(b, "%s_sum%s %s\n", name, suffix, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, suffix, h.Count())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
