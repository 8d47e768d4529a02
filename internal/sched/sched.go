// Package sched assigns wall-clock timing to layered circuits and extracts
// the jointly-idle windows that the CA-DD pass decorates (paper Algorithm 1,
// function CollectJointDelays): idle periods are collected into groups that
// overlap in time and are adjacent on the crosstalk graph, then recursively
// split at the window holding the largest number of jointly idling qubits.
package sched

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/qgraph"
)

// LayerDuration computes the duration of a layer on the given device:
// twirl layers are free (merged into neighboring 1q gates), 1q layers cost
// one 1q gate time, 2q layers cost the ECR duration (or the longest explicit
// delay if they contain only delays), and measurement layers cost the
// measurement time plus the feed-forward latency when conditional gates are
// present downstream of the measurement.
func LayerDuration(l *circuit.Layer, d *device.Device) float64 {
	switch l.Kind {
	case circuit.TwirlLayer:
		return 0
	case circuit.OneQubitLayer:
		dur := 0.0
		hasGate := false
		for _, in := range l.Instrs {
			if in.Gate == gates.Delay {
				if len(in.Params) > 0 && in.Params[0] > dur {
					dur = in.Params[0]
				}
				continue
			}
			// RZ is a virtual frame update (zero duration, zero cost); a
			// layer holding only RZ corrections is free.
			if in.Gate != gates.RZ && in.Gate != gates.ID {
				hasGate = true
			}
			if in.Cond != nil && in.Gate != gates.RZ {
				// Conditional physical gates execute after the feed-forward
				// offset encoded in Time; conditional virtual Rz corrections
				// are free.
				if t := in.Time + d.Dur1Q; t > dur {
					dur = t
				}
			}
		}
		if hasGate && dur < d.Dur1Q {
			dur = d.Dur1Q
		}
		return dur
	case circuit.TwoQubitLayer:
		dur := 0.0
		for _, in := range l.Instrs {
			g := 0.0
			switch {
			case in.Gate == gates.Ucan, in.Gate == gates.SWAP:
				// A canonical gate compiles to 3 CNOT/ECR blocks plus
				// interleaved 1q gates (paper Fig. 1d); a routing SWAP is
				// likewise 3 CNOTs.
				g = 3*d.DurECR + 2*d.Dur1Q
			case in.Gate == gates.RZZ:
				// Pulse-stretched native RZZ (paper Sec. IV B): duration
				// scales with the rotation angle, never exceeding an ECR.
				// An RZZ without its angle, which Validate rejects, takes
				// a full ECR.
				g = d.DurECR
				if len(in.Params) > 0 {
					frac := math.Abs(in.Params[0]) / (math.Pi / 2)
					if frac > 1 {
						frac = 1
					}
					g = d.DurECR * frac
					if g < d.Dur1Q {
						g = d.Dur1Q
					}
				}
			case gates.NumQubits(in.Gate) == 2:
				g = d.DurECR
			case in.Gate == gates.Delay && len(in.Params) > 0:
				g = in.Params[0]
			}
			if g > dur {
				dur = g
			}
		}
		return dur
	case circuit.MeasureLayer:
		return d.DurMeas
	}
	return 0
}

// Schedule assigns Start and Duration to every layer in place (ASAP,
// layer-synchronous). It returns the total circuit duration.
func Schedule(c *circuit.Circuit, d *device.Device) float64 {
	t := 0.0
	for i := range c.Layers {
		l := &c.Layers[i]
		l.Start = t
		l.Duration = LayerDuration(l, d)
		t += l.Duration
	}
	return t
}

// IdleRun is a maximal contiguous interval during which one qubit receives
// no real gate (delays do not interrupt a run; any other instruction,
// including twirl Paulis and DD pulses, does).
type IdleRun struct {
	Qubit      int
	Start, End float64
}

// IdleRuns scans a scheduled circuit and returns all idle runs with
// duration >= minDur, sorted by (qubit, start).
func IdleRuns(c *circuit.Circuit, minDur float64) []IdleRun {
	type state struct {
		open  bool
		start float64
	}
	st := make([]state, c.NQubits)
	// active[q] is 1 + the index of the last layer where a non-delay
	// instruction touched q, so one slice serves every layer.
	active := make([]int, c.NQubits)
	var runs []IdleRun
	closeRun := func(q int, end float64) {
		if st[q].open && end-st[q].start >= minDur && end > st[q].start {
			runs = append(runs, IdleRun{Qubit: q, Start: st[q].start, End: end})
		}
		st[q].open = false
	}
	for li := range c.Layers {
		l := &c.Layers[li]
		for i := range l.Instrs {
			in := &l.Instrs[i]
			if in.Gate == gates.Delay {
				continue
			}
			for _, q := range in.Qubits {
				if uint(q) < uint(len(active)) {
					active[q] = li + 1
				}
			}
		}
		for q := 0; q < c.NQubits; q++ {
			if active[q] == li+1 {
				closeRun(q, l.Start)
				continue
			}
			if !st[q].open && l.Duration > 0 {
				st[q].open = true
				st[q].start = l.Start
			}
		}
	}
	end := c.TotalDuration()
	for q := 0; q < c.NQubits; q++ {
		closeRun(q, end)
	}
	// A qubit's runs are disjoint, so (qubit, start) orders them totally.
	slices.SortFunc(runs, func(a, b IdleRun) int {
		if c := cmp.Compare(a.Qubit, b.Qubit); c != 0 {
			return c
		}
		return cmp.Compare(a.Start, b.Start)
	})
	return runs
}

// Window is a set of qubits jointly idle over [Start, End] — the unit the
// DD pass colors and decorates.
type Window struct {
	Qubits     []int
	Start, End float64
}

// Duration returns the window length.
func (w Window) Duration() float64 { return w.End - w.Start }

func overlap(a, b IdleRun) bool { return a.Start < b.End && b.Start < a.End }

// groupRuns greedily collects runs that overlap in time and whose qubits are
// adjacent on g into connected groups (Algorithm 1, line 8).
func groupRuns(runs []IdleRun, g *qgraph.Graph) [][]IdleRun {
	n := len(runs)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !overlap(runs[i], runs[j]) {
				continue
			}
			qi, qj := runs[i].Qubit, runs[j].Qubit
			if qi == qj || g.HasEdge(qi, qj) {
				union(i, j)
			}
		}
	}
	byRoot := map[int][]IdleRun{}
	var roots []int
	for i, r := range runs {
		root := find(i)
		if _, ok := byRoot[root]; !ok {
			roots = append(roots, root)
		}
		byRoot[root] = append(byRoot[root], r)
	}
	sort.Ints(roots)
	var out [][]IdleRun
	for _, root := range roots {
		out = append(out, byRoot[root])
	}
	return out
}

// splitGroup recursively extracts windows from a group: it finds the
// elementary time interval combination with the largest number of jointly
// idle qubits (ties broken by duration), emits it as a window, clips the
// remaining run pieces, and recurses (Algorithm 1, lines 10-18).
func splitGroup(group []IdleRun, minDur float64, out *[]Window) {
	if len(group) == 0 {
		return
	}
	// Elementary boundaries.
	bset := map[float64]bool{}
	for _, r := range group {
		bset[r.Start] = true
		bset[r.End] = true
	}
	bounds := make([]float64, 0, len(bset))
	for b := range bset {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	type cell struct {
		start, end float64
		qubits     []int
	}
	var cells []cell
	for i := 0; i+1 < len(bounds); i++ {
		mid := (bounds[i] + bounds[i+1]) / 2
		var qs []int
		for _, r := range group {
			if r.Start <= mid && mid < r.End {
				qs = append(qs, r.Qubit)
			}
		}
		if len(qs) > 0 {
			sort.Ints(qs)
			cells = append(cells, cell{bounds[i], bounds[i+1], qs})
		}
	}
	if len(cells) == 0 {
		return
	}
	// Merge adjacent cells with identical qubit sets.
	merged := []cell{cells[0]}
	for _, c := range cells[1:] {
		last := &merged[len(merged)-1]
		if c.start == last.end && equalInts(c.qubits, last.qubits) {
			last.end = c.end
			continue
		}
		merged = append(merged, c)
	}
	// Pick the best window: most qubits, then longest.
	best := 0
	for i, c := range merged[1:] {
		b := merged[best]
		if len(c.qubits) > len(b.qubits) ||
			(len(c.qubits) == len(b.qubits) && c.end-c.start > b.end-b.start) {
			best = i + 1
		}
	}
	w := merged[best]
	if w.end-w.start >= minDur {
		*out = append(*out, Window{Qubits: w.qubits, Start: w.start, End: w.end})
	}
	// Split remaining run pieces strictly before/after the chosen window and
	// recurse on each side.
	var before, after []IdleRun
	for _, r := range group {
		if r.Start < w.start {
			e := r.End
			if e > w.start {
				e = w.start
			}
			if e-r.Start >= minDur {
				before = append(before, IdleRun{r.Qubit, r.Start, e})
			}
		}
		if r.End > w.end {
			s := r.Start
			if s < w.end {
				s = w.end
			}
			if r.End-s >= minDur {
				after = append(after, IdleRun{r.Qubit, s, r.End})
			}
		}
	}
	splitGroup(before, minDur, out)
	splitGroup(after, minDur, out)
}

func equalInts(a, b []int) bool {
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

// CollectJointDelays implements Algorithm 1's CollectJointDelays: it
// extracts idle runs of at least minDur, groups them by crosstalk adjacency
// and temporal overlap, and recursively splits each group into windows of
// jointly idle qubits. Windows are returned sorted by start time.
func CollectJointDelays(c *circuit.Circuit, g *qgraph.Graph, minDur float64) []Window {
	runs := IdleRuns(c, minDur)
	var out []Window
	for _, grp := range groupRuns(runs, g) {
		splitGroup(grp, minDur, &out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}
