// Package layout is the context-aware placement stage of the compiler: it
// maps a logical circuit onto a (usually much larger) calibrated backend by
// enumerating candidate sub-layouts and scoring each by the coherent error
// the calibration predicts the circuit would accumulate there.
//
// This is the step the paper's workflow presumes and the related
// device-aware compilers make explicit: before any suppression pass runs,
// the compiler reads the backend's ZZ/Stark/NNN rates and picks the
// subregion where the workload's specific idling pattern hurts least. The
// scorer is the same toggling-frame integral the CA-EC pass compensates
// (internal/toggling), so "predicted error" means exactly the angles the
// downstream passes would otherwise have to fight.
//
// Selection runs in three tiers: a cheap static filter (sum of ZZ rates
// touching the candidate region, plus a 1/T2 term) orders the enumeration,
// a ridge-regression surrogate (internal/surrogate) trained online on the
// first exact-scored batch prunes the remainder, and the survivors are
// scored exactly — the circuit is remapped onto the candidate, routed,
// scheduled, and integrated layer by layer on a worker pool with an
// index-ordered reduction, so the chosen placement is bit-identical at any
// worker count. Candidate enumeration is topology-shaped: interaction
// graphs that form a path or a cycle enumerate the backend's matching
// paths/cycles directly; anything else falls back to greedy
// adjacency-guided growth and lets the router legalize whatever remains
// non-adjacent.
//
// The two stages are ordinary pass.Passes (Select, Route) for pipeline
// composition, and Choose/Placement expose the embedding directly for
// callers that need the induced sub-device — the experiment harnesses
// simulate on the induced region so simulator cost scales with the circuit,
// not the backend. ChooseWith additionally reports the search telemetry
// (pruning ratio, fitted surrogate, throughput), and Monitor keeps a chosen
// placement honest against calibration drift, recompiling only when the
// predicted error actually rises past a threshold.
package layout

import (
	"casq/internal/circuit"
	"casq/internal/device"
	"casq/internal/gates"
	"casq/internal/qgraph"
)

// Options bound the candidate search.
type Options struct {
	// TopK is how many statically-filtered candidates receive the exact
	// toggling-frame score when surrogate pruning is off (0 = 32).
	TopK int
	// NoSurrogate disables surrogate pruning: the TopK statically-best
	// candidates are all scored exactly, as in the pre-surrogate compiler.
	NoSurrogate bool
	// Workers bounds the exact-scoring worker pool (0 = GOMAXPROCS). The
	// chosen placement is bit-identical at any worker count.
	Workers int
}

// Search bounds. The enumeration stops at DefaultMaxCandidates. A pruned
// search exact-scores DefaultFitBatch diversely-ordered candidates to
// train the surrogate, then the DefaultExactTopK best-predicted of the
// rest. The fit batch always includes the statically best region of
// every diversity round it covers, so the argmin is taken over
// guaranteed-exact scores.
const (
	DefaultMaxCandidates = 4096
	DefaultTopK          = 32
	DefaultFitBatch      = 12
	DefaultExactTopK     = 8
)

// DefaultOptions returns the standard search bounds.
func DefaultOptions() Options {
	return Options{TopK: DefaultTopK}
}

func (o Options) withDefaults() Options {
	if o.TopK <= 0 {
		o.TopK = DefaultTopK
	}
	return o
}

// Placement is a chosen embedding of a logical circuit into a backend.
type Placement struct {
	// Backend is the parent device's name.
	Backend string
	// Phys maps logical qubit -> physical qubit on the parent device.
	Phys []int
	// Region is the sorted physical qubit set of the embedding.
	Region []int
	// Sub is the induced sub-device on Region with compact indices — the
	// simulation target.
	Sub *device.Device
	// ToSub maps logical qubit -> compact Sub index.
	ToSub []int
	// Score is the predicted accumulated coherent error (radians) of the
	// probe circuit on this placement, including a boundary penalty for
	// region-crossing ZZ edges.
	Score float64
}

// MapCircuit remaps a logical circuit onto the induced sub-device and
// routes it (inserting SWAPs for any non-adjacent two-qubit gates). It
// returns the routed circuit, the final wire -> sub-qubit positions (SWAPs
// permute wires, so observables on logical qubit l live on sub qubit
// final[ToSub[l]] — identity when no SWAPs were needed), and the SWAP
// count.
func (p *Placement) MapCircuit(c *circuit.Circuit) (*circuit.Circuit, []int, int, error) {
	return route(p.Sub, c, p.ToSub)
}

// Remap returns a copy of c with every qubit operand i replaced by f[i] and
// the qubit count set to nq.
func Remap(c *circuit.Circuit, f []int, nq int) *circuit.Circuit {
	out := c.Clone()
	out.NQubits = nq
	for li := range out.Layers {
		for ii := range out.Layers[li].Instrs {
			in := &out.Layers[li].Instrs[ii]
			for qi, q := range in.Qubits {
				in.Qubits[qi] = f[q]
			}
		}
	}
	return out
}

// interactionGraph collects the logical 2q-coupling structure of a circuit.
func interactionGraph(c *circuit.Circuit) *qgraph.Graph {
	g := qgraph.New(c.NQubits)
	for _, l := range c.Layers {
		for _, in := range l.Instrs {
			if gates.NumQubits(in.Gate) == 2 && !g.HasEdge(in.Qubits[0], in.Qubits[1]) {
				g.AddEdge(in.Qubits[0], in.Qubits[1])
			}
		}
	}
	return g
}

// pathOrder returns the logical qubits in path order if the interaction
// graph is a simple path spanning all n qubits (isolated single qubit
// included), else nil.
func pathOrder(g *qgraph.Graph) []int {
	n := g.N
	if n == 1 {
		return []int{0}
	}
	edges := 0
	start := -1
	for q := 0; q < n; q++ {
		d := g.Degree(q)
		edges += d
		if d > 2 || d == 0 {
			return nil
		}
		if d == 1 {
			start = q
		}
	}
	if edges/2 != n-1 || start == -1 {
		return nil
	}
	return walkFrom(g, start, n, false)
}

// cycleOrder returns the logical qubits in cycle order if the interaction
// graph is a single cycle over all n qubits, else nil.
func cycleOrder(g *qgraph.Graph) []int {
	n := g.N
	if n < 3 {
		return nil
	}
	edges := 0
	for q := 0; q < n; q++ {
		if g.Degree(q) != 2 {
			return nil
		}
		edges += 2
	}
	if edges/2 != n {
		return nil
	}
	return walkFrom(g, 0, n, true)
}

// walkFrom traverses the degree-<=2 graph from start, returning the visit
// order, or nil if the walk does not cover n nodes (or, for cycles, does
// not close).
func walkFrom(g *qgraph.Graph, start, n int, cycle bool) []int {
	order := []int{start}
	seen := map[int]bool{start: true}
	cur := start
	for len(order) < n {
		next := -1
		for _, nb := range g.Neighbors(cur) {
			if !seen[nb] {
				next = nb
				break
			}
		}
		if next == -1 {
			return nil
		}
		order = append(order, next)
		seen[next] = true
		cur = next
	}
	if cycle && !g.HasEdge(order[n-1], order[0]) {
		return nil
	}
	return order
}

// enumeratePaths lists simple paths of len(ord) vertices in the coupling
// graph, capped, each written straight into its logical->physical mapping:
// the path's i-th vertex hosts logical qubit ord[i]. Each path yields one
// candidate (reversals arise from DFS at the other endpoint).
func enumeratePaths(g *qgraph.Graph, ord []int, cap_ int) [][]int {
	nv := len(ord)
	var out [][]int
	path := make([]int, 0, nv)
	used := make([]bool, g.N)
	var dfs func(int)
	dfs = func(v int) {
		if len(out) >= cap_ {
			return
		}
		path = append(path, v)
		used[v] = true
		if len(path) == nv {
			out = append(out, mapping(ord, path))
		} else {
			for _, nb := range g.Neighbors(v) {
				if !used[nb] {
					dfs(nb)
				}
			}
		}
		used[v] = false
		path = path[:len(path)-1]
	}
	for s := 0; s < g.N && len(out) < cap_; s++ {
		dfs(s)
	}
	return out
}

// enumerateCycles lists closed walks of len(ord) distinct vertices, each
// written into its mapping as enumeratePaths does. Every rotation and
// direction is enumerated separately: each corresponds to a different
// logical->physical assignment, and the calibration distinguishes them.
func enumerateCycles(g *qgraph.Graph, ord []int, cap_ int) [][]int {
	nv := len(ord)
	var out [][]int
	path := make([]int, 0, nv)
	used := make([]bool, g.N)
	var dfs func(start, v int)
	dfs = func(start, v int) {
		if len(out) >= cap_ {
			return
		}
		path = append(path, v)
		used[v] = true
		if len(path) == nv {
			if g.HasEdge(v, start) {
				out = append(out, mapping(ord, path))
			}
		} else {
			for _, nb := range g.Neighbors(v) {
				if !used[nb] {
					dfs(start, nb)
				}
			}
		}
		used[v] = false
		path = path[:len(path)-1]
	}
	for s := 0; s < g.N && len(out) < cap_; s++ {
		dfs(s, s)
	}
	return out
}

// mapping returns the logical->physical mapping that puts logical qubit
// ord[i] on walk[i].
func mapping(ord, walk []int) []int {
	phys := make([]int, len(ord))
	for i, l := range ord {
		phys[l] = walk[i]
	}
	return phys
}

// greedyCandidates grows one candidate region from every physical seed:
// logical qubits are placed in BFS order over the interaction graph, each
// onto the free physical qubit adjacent to an already-placed interaction
// partner with the lowest added ZZ weight (nearest free qubit when no
// adjacent one is open). The router legalizes any residual non-adjacency.
func greedyCandidates(dev *device.Device, g *qgraph.Graph, ig *qgraph.Graph, cap_ int) [][]int {
	n := ig.N
	order := logicalBFSOrder(ig)
	var out [][]int
	for seed := 0; seed < dev.NQubits && len(out) < cap_; seed++ {
		phys := make([]int, n)
		for i := range phys {
			phys[i] = -1
		}
		used := make([]bool, dev.NQubits)
		ok := true
		for _, l := range order {
			var best = -1
			var bestW float64
			try := func(p int) {
				if p < 0 || used[p] {
					return
				}
				w := 0.0
				for _, nb := range g.Neighbors(p) {
					if used[nb] {
						w += dev.ZZRate(p, nb)
					}
				}
				if best == -1 || w < bestW || (w == bestW && p < best) {
					best, bestW = p, w
				}
			}
			if phys[order[0]] == -1 && l == order[0] {
				try(seed)
			} else {
				for _, ln := range ig.Neighbors(l) {
					if phys[ln] == -1 {
						continue
					}
					for _, p := range g.Neighbors(phys[ln]) {
						try(p)
					}
				}
				if best == -1 {
					// No free neighbor of any placed partner: take the
					// nearest free qubit from the placed frontier.
					try(nearestFree(g, phys, used))
				}
			}
			if best == -1 {
				ok = false
				break
			}
			phys[l] = best
			used[best] = true
		}
		if ok {
			out = append(out, phys)
		}
	}
	return out
}

// logicalBFSOrder orders logical qubits by BFS from the highest-degree
// vertex, covering every component (isolated qubits last, ascending).
func logicalBFSOrder(ig *qgraph.Graph) []int {
	n := ig.N
	start := 0
	for q := 1; q < n; q++ {
		if ig.Degree(q) > ig.Degree(start) {
			start = q
		}
	}
	seen := make([]bool, n)
	var order []int
	var bfs func(int)
	bfs = func(s int) {
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			for _, v := range ig.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	bfs(start)
	for q := 0; q < n; q++ {
		if !seen[q] {
			bfs(q)
		}
	}
	return order
}

// nearestFree BFS-expands from all placed qubits to the closest unused one.
func nearestFree(g *qgraph.Graph, phys []int, used []bool) int {
	var queue []int
	seen := make([]bool, g.N)
	for _, p := range phys {
		if p >= 0 {
			queue = append(queue, p)
			seen[p] = true
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if !used[u] {
			return u
		}
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return -1
}

// Choose selects the minimal-predicted-error embedding of c into dev. The
// probe circuit should be the deepest instance of the workload (layout is
// then reused across a depth sweep). Candidates are enumerated by the
// interaction graph's shape, ordered by the static filter, pruned by the
// online surrogate, and the finalists are scored exactly: remapped,
// routed, scheduled, and integrated in the toggling frame, plus the
// boundary penalty. Ties break toward the lexicographically smallest
// mapping so the choice is deterministic. Choose is ChooseWith without the
// telemetry.
func Choose(dev *device.Device, c *circuit.Circuit, opts Options) (*Placement, error) {
	pl, _, err := ChooseWith(dev, c, opts)
	return pl, err
}

// enumerate lists candidate logical->physical mappings, shaped by the
// interaction graph: path workloads enumerate the backend's simple paths,
// cycle workloads its cycles, everything else grows greedily and lets the
// router legalize the rest.
func enumerate(dev *device.Device, g, ig *qgraph.Graph) [][]int {
	var cands [][]int
	if ord := pathOrder(ig); ord != nil {
		cands = enumeratePaths(g, ord, DefaultMaxCandidates)
	} else if ord := cycleOrder(ig); ord != nil {
		cands = enumerateCycles(g, ord, DefaultMaxCandidates)
	}
	if len(cands) == 0 {
		cands = greedyCandidates(dev, g, ig, DefaultMaxCandidates)
	}
	return cands
}
