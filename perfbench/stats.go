package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the p-th percentile (0-100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// latHist is a log-linear latency histogram with 2^latSub buckets per
// power of two nanoseconds. A percentile read from it is within 1/2^latSub
// (0.4%) of the exact one, and its memory stays constant however many
// operations a run completes, so the benchmark's own footprint does not
// move rss_mb.
type latHist struct {
	counts [64 << latSub]uint32
	n      int
}

const latSub = 8

func (h *latHist) add(d time.Duration) {
	v := uint64(max(d, 1))
	e := bits.Len64(v) - 1
	var m uint64
	if e >= latSub {
		m = v >> (e - latSub)
	} else {
		m = v << (latSub - e)
	}
	h.counts[e<<latSub|int(m&(1<<latSub-1))]++
	h.n++
}

// bucket returns the edges of bucket i in nanoseconds.
func bucket(i int) (lo, hi float64) {
	m, e := float64(1<<latSub+i&(1<<latSub-1)), i>>latSub-latSub
	return math.Ldexp(m, e), math.Ldexp(m+1, e)
}

// percentile returns the p-th percentile (0-100) in ms, interpolating by
// rank inside the bucket that holds it.
func (h *latHist) percentile(p float64) float64 {
	rank := p / 100 * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucket(i)
			return (lo + (rank-cum)/float64(c)*(hi-lo)) / 1e6
		}
		cum += float64(c)
	}
	return 0
}

// rtStats are the Go runtime's cumulative counters, from runtime/metrics.
type rtStats struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU                              float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return float64(s[i].Value.Uint64())
	}
	return rtStats{allocBytes: v(0), allocObjects: v(1), gcCycles: v(2), gcCPU: v(3)}
}

func (r rtStats) sub(o rtStats) rtStats {
	return rtStats{r.allocBytes - o.allocBytes, r.allocObjects - o.allocObjects, r.gcCycles - o.gcCycles, r.gcCPU - o.gcCPU}
}

// rssMB is the process's current resident set (VmRSS) in MiB, or NaN when
// /proc does not report it.
func rssMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// tally folds a run's exact-count sequence as the operations complete:
// the first operation's counts, the first operation whose counts differ
// from them, per-position totals, and a fingerprint — a running FNV-1a
// hash over every operation's counts, recorded after each of the first 64
// operations, every 1024th after that, and the last. Two runs of one
// workload and seed must agree at every operation count both reached.
type tally struct {
	n           int
	first       []int64
	differ      int // index of the first operation unlike the first, or -1
	totals      []int64
	h           hash.Hash64
	buf         []byte
	checkpoints map[int]string
}

func newTally() *tally {
	return &tally{differ: -1, h: fnv.New64a(), checkpoints: map[int]string{}}
}

func (t *tally) add(counts []int64) {
	if t.n == 0 {
		t.first, t.totals = counts, make([]int64, len(counts))
	} else if t.differ < 0 && !slices.Equal(counts, t.first) {
		t.differ = t.n
	}
	t.buf = t.buf[:0]
	for k, c := range counts {
		t.totals[k] += c
		t.buf = strconv.AppendInt(t.buf, c, 10)
		t.buf = append(t.buf, ',')
	}
	t.h.Write(append(t.buf, ';'))
	t.n++
	if t.n <= 64 || t.n%1024 == 0 {
		t.mark()
	}
}

// mark records the fingerprint at the current operation count; the run
// marks its last operation when it ends.
func (t *tally) mark() { t.checkpoints[t.n] = fmt.Sprintf("%016x", t.h.Sum64()) }

// compareCounts reports the first operation count at which two runs'
// checkpoints disagree.
func compareCounts(a, b map[int]string) error {
	ns := make([]int, 0, len(a))
	for n := range a {
		if _, ok := b[n]; ok {
			ns = append(ns, n)
		}
	}
	sort.Ints(ns)
	for _, n := range ns {
		if a[n] != b[n] {
			return fmt.Errorf("exact counts differ within the first %d operations", n)
		}
	}
	return nil
}

// countsRecord is the exact-count fingerprint of the first run of a
// workload and seed by one build of the benchmark; later runs of the same
// build must match it.
type countsRecord struct {
	Workload    string         `json:"workload"`
	Seed        int64          `json:"seed"`
	Build       string         `json:"build"`
	Checkpoints map[int]string `json:"checkpoints"`
}

// buildID is the SHA-256 of the running executable, which the build
// derives from the benchmark's and casq's sources. It scopes the count
// record to one version of the code: a change that legitimately alters
// the work counts builds another executable and starts its own record.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// checkRecord compares the run's checkpoints with the record of the first
// run of its set — the same workload and seed on the same build — writing
// the record when this run is the first.
func checkRecord(dir, workload string, seed int64, cp map[int]string) (string, error) {
	build, err := buildID()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("counts-%s-seed%d-build%s.json", workload, seed, build))
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		data, err = json.Marshal(countsRecord{Workload: workload, Seed: seed, Build: build, Checkpoints: cp})
		if err != nil {
			return "", err
		}
		return "first run of this workload and seed on build " + build + ": counts recorded", os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return "", err
	}
	var rec countsRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	if err := compareCounts(rec.Checkpoints, cp); err != nil {
		return "", fmt.Errorf("against the first run of this workload and seed on build %s: %w", build, err)
	}
	return "counts match the first run of this workload and seed on build " + build, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
