package qgraph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"
)

// refGraph is the map-backed graph the package used before adjacency
// became sorted slices. It is kept as the reference Graph is checked
// against: every method walks a map, so it shares no traversal code with
// Graph.
type refGraph struct {
	N   int
	adj []map[int]bool
}

func newRef(n int) *refGraph {
	g := &refGraph{N: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

func (g *refGraph) AddEdge(a, b int) {
	if a == b {
		panic(fmt.Sprintf("qgraph: self-loop on node %d", a))
	}
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		panic(fmt.Sprintf("qgraph: edge (%d,%d) out of range [0,%d)", a, b, g.N))
	}
	g.adj[a][b] = true
	g.adj[b][a] = true
}

func (g *refGraph) HasEdge(a, b int) bool {
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		return false
	}
	return g.adj[a][b]
}

func (g *refGraph) Neighbors(a int) []int {
	out := make([]int, 0, len(g.adj[a]))
	for b := range g.adj[a] {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

func (g *refGraph) Degree(a int) int { return len(g.adj[a]) }

func (g *refGraph) Edges() [][2]int {
	var out [][2]int
	for a := 0; a < g.N; a++ {
		for b := range g.adj[a] {
			if a < b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (g *refGraph) IsBipartite() bool {
	color := make([]int, g.N)
	for i := range color {
		color[i] = -1
	}
	for s := 0; s < g.N; s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for v := range g.adj[u] {
				if color[v] == -1 {
					color[v] = 1 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return false
				}
			}
		}
	}
	return true
}

func (g *refGraph) Components() [][]int {
	seen := make([]bool, g.N)
	var comps [][]int
	for s := 0; s < g.N; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

func (g *refGraph) Distances(src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func (g *refGraph) AllDistances() [][]int {
	out := make([][]int, g.N)
	for i := range out {
		out[i] = g.Distances(i)
	}
	return out
}

func refGreedyColor(g *refGraph, order []int, fixed Coloring, forbidden map[int][]int) Coloring {
	c := Coloring{}
	for n, col := range fixed {
		c[n] = col
	}
	for _, n := range order {
		if _, done := c[n]; done {
			continue
		}
		used := map[int]bool{}
		for b := range g.adj[n] {
			if col, ok := c[b]; ok {
				used[col] = true
			}
		}
		for _, col := range forbidden[n] {
			used[col] = true
		}
		col := 0
		for used[col] {
			col++
		}
		c[n] = col
	}
	return c
}

func refDegreeOrder(g *refGraph, subset []int) []int {
	out := append([]int(nil), subset...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := g.Degree(out[i]), g.Degree(out[j])
		if di != dj {
			return di > dj
		}
		return out[i] < out[j]
	})
	return out
}

// FuzzGraphMatchesReference builds a Graph and a refGraph from one byte
// string and requires every query to agree. The first byte sets the node
// count and each following pair of bytes adds one edge (self-loops are
// skipped, repeats kept), so inputs reach repeated edges, isolated nodes
// and several components. The remaining choices — the DegreeOrder node
// set, pinned colors and the lowest color — are read from the same bytes.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 2, 0, 1, 0, 3, 4})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0, 6, 7, 7, 8, 9, 10, 10, 11, 11, 9})
	f.Add([]byte{1})
	f.Add([]byte{129, 0, 129, 5, 5, 64, 65, 128, 127, 127, 128, 3, 7, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pick := func(i int) int { return int(data[i%len(data)]) }
		n := 1 + pick(0)%140
		g, ref := New(n), newRef(n)
		for i := 1; i+1 < len(data); i += 2 {
			a, b := pick(i)%n, pick(i+1)%n
			if a == b {
				continue
			}
			g.AddEdge(a, b)
			ref.AddEdge(a, b)
		}
		all := make([]int, n)
		for a := range all {
			all[a] = a
			nb := g.Neighbors(a)
			if !slices.Equal(nb, ref.Neighbors(a)) || g.Degree(a) != ref.Degree(a) {
				t.Fatalf("node %d: neighbors %v (degree %d), reference %v", a, nb, g.Degree(a), ref.Neighbors(a))
			}
			if cap(nb) != len(nb) {
				t.Fatalf("Neighbors(%d) has capacity %d past its length %d", a, cap(nb), len(nb))
			}
		}
		for a := -1; a <= n; a++ {
			for b := -1; b <= n; b++ {
				if g.HasEdge(a, b) != ref.HasEdge(a, b) {
					t.Fatalf("HasEdge(%d,%d) = %v, reference %v", a, b, g.HasEdge(a, b), ref.HasEdge(a, b))
				}
			}
		}
		if got, want := g.Edges(), ref.Edges(); !slices.Equal(got, want) {
			t.Fatalf("Edges = %v, reference %v", got, want)
		}
		dist, refDist := g.AllDistances(), ref.AllDistances()
		for a := range refDist {
			if !slices.Equal(dist[a], refDist[a]) {
				t.Fatalf("distances from %d = %v, reference %v", a, dist[a], refDist[a])
			}
			if cap(dist[a]) != n {
				t.Fatalf("AllDistances row %d has capacity %d, want %d", a, cap(dist[a]), n)
			}
		}
		if got, want := g.Components(), ref.Components(); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("Components = %v, reference %v", got, want)
		}
		if g.IsBipartite() != ref.IsBipartite() {
			t.Fatalf("IsBipartite = %v, reference %v", g.IsBipartite(), ref.IsBipartite())
		}

		var subset []int
		for a := n - 1; a >= 0; a-- {
			if pick(a+1)&1 == 1 {
				subset = append(subset, a)
			}
		}
		if len(subset) > 0 {
			subset = append(subset, subset[0]) // a repeated node
		}
		if got, want := DegreeOrder(g, subset), refDegreeOrder(ref, subset); !slices.Equal(got, want) {
			t.Fatalf("DegreeOrder(%v) = %v, reference %v", subset, got, want)
		}

		byDegree := DegreeOrder(g, all)
		colors := make([]int, n)
		greedy := func(fixed Coloring, lowest int) Coloring {
			for a := range colors {
				colors[a] = -1
			}
			for a, col := range fixed {
				colors[a] = col
			}
			GreedyColor(g, byDegree, colors, lowest)
			got := Coloring{}
			for a, col := range colors {
				if col >= 0 {
					got[a] = col
				}
			}
			return got
		}
		if got, want := greedy(nil, 0), refGreedyColor(ref, byDegree, nil, nil); !maps.Equal(got, want) {
			t.Fatalf("GreedyColor = %v, reference %v", got, want)
		}
		// Pinned colors on some nodes and a lowest color for the rest:
		// the reference forbids every color below it on every node.
		fixed := Coloring{}
		for a := 0; a < n; a++ {
			if pick(2*a+3)%5 == 0 {
				fixed[a] = pick(a) % 3
			}
		}
		lowest := pick(n+1) % 3
		forbidden := map[int][]int{}
		for a := 0; a < n; a++ {
			for col := 0; col < lowest; col++ {
				forbidden[a] = append(forbidden[a], col)
			}
		}
		if got, want := greedy(fixed, lowest), refGreedyColor(ref, byDegree, fixed, forbidden); !maps.Equal(got, want) {
			t.Fatalf("GreedyColor(fixed %v, lowest %d) = %v, reference %v", fixed, lowest, got, want)
		}
	})
}

// TestAddEdgePanicsMatchReference: a self-loop or an out-of-range endpoint
// panics with the reference's message.
func TestAddEdgePanicsMatchReference(t *testing.T) {
	recovered := func(add func(a, b int), a, b int) (v any) {
		defer func() { v = recover() }()
		add(a, b)
		return nil
	}
	for _, e := range [][2]int{{2, 2}, {-1, 0}, {0, 5}, {5, 0}, {-1, -1}} {
		got := recovered(New(5).AddEdge, e[0], e[1])
		want := recovered(newRef(5).AddEdge, e[0], e[1])
		if got == nil || got != want {
			t.Errorf("AddEdge(%d,%d) panicked with %v, reference %v", e[0], e[1], got, want)
		}
	}
}
