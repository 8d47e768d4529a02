// Package qgraph provides the small undirected-graph toolkit used to build
// device crosstalk graphs and to solve the constrained coloring problem at
// the heart of the CA-DD pass (paper Algorithm 1 / Fig. 5): idle qubits must
// receive colors (Walsh sequence indices) such that no two crosstalk-coupled
// qubits share a color, subject to pre-assigned colors on gate qubits.
//
// Adjacency is one sorted slice per node, so every traversal — the layout
// search's path enumeration, its all-pairs hop distances, routing BFS —
// walks neighbors in ascending order without touching a map or copying a
// list.
package qgraph

import (
	"cmp"
	"fmt"
	"slices"
)

// Graph is an undirected simple graph on nodes 0..N-1. Each node's
// neighbors are kept as one slice sorted ascending.
type Graph struct {
	N   int
	adj [][]int
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n)}
}

// AddEdge inserts the undirected edge (a, b); adding an existing edge
// again changes nothing. Self-loops are rejected.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		panic(fmt.Sprintf("qgraph: self-loop on node %d", a))
	}
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		panic(fmt.Sprintf("qgraph: edge (%d,%d) out of range [0,%d)", a, b, g.N))
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
}

// insertSorted adds v to the sorted list s unless it is already there.
func insertSorted(s []int, v int) []int {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	return slices.Insert(s, i, v)
}

// HasEdge reports whether (a, b) is an edge.
func (g *Graph) HasEdge(a, b int) bool {
	if a < 0 || a >= g.N || b < 0 || b >= g.N {
		return false
	}
	_, found := slices.BinarySearch(g.adj[a], b)
	return found
}

// Neighbors returns the sorted neighbor list of node a. The slice is the
// graph's own: callers must not write to it, and a later AddEdge may
// change it. Its capacity equals its length, so appending to it copies.
func (g *Graph) Neighbors(a int) []int {
	nb := g.adj[a]
	return nb[:len(nb):len(nb)]
}

// Degree returns the number of neighbors of a.
func (g *Graph) Degree(a int) int { return len(g.adj[a]) }

// Components returns the connected components, each as a sorted node list,
// ordered by smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.N)
	var comps [][]int
	for s := 0; s < g.N; s++ {
		if seen[s] {
			continue
		}
		comp := []int{s}
		seen[s] = true
		for head := 0; head < len(comp); head++ {
			for _, v := range g.adj[comp[head]] {
				if !seen[v] {
					seen[v] = true
					comp = append(comp, v)
				}
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}

// AllDistances returns the full pairwise hop-distance matrix (one BFS per
// node; -1 for unreachable pairs). The rows share one backing array and
// the BFS passes share one queue.
func (g *Graph) AllDistances() [][]int {
	flat := make([]int, g.N*g.N)
	queue := make([]int, 0, g.N)
	out := make([][]int, g.N)
	for i := range out {
		out[i] = flat[i*g.N : (i+1)*g.N : (i+1)*g.N]
		g.bfs(i, out[i], queue)
	}
	return out
}

// bfs fills dist with hop distances from src, -1 where unreachable. queue
// is scratch of capacity g.N: every node enters it at most once, so it
// never grows.
func (g *Graph) bfs(src int, dist, queue []int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
}

// GreedyColor colors the nodes of order, in order, into colors, which
// holds one entry per node of g: -1 means uncolored, and entries already
// set are pinned and never change. Each uncolored node of order takes the
// smallest color, at least lowest, that none of its neighbors holds —
// the smallest Walsh hierarchy level, per the paper's heuristic. It
// allocates nothing and sets no limit on the number of colors.
func GreedyColor(g *Graph, order []int, colors []int, lowest int) {
	for _, n := range order {
		if colors[n] >= 0 {
			continue
		}
		col := lowest
		for taken := true; taken; {
			taken = false
			for _, b := range g.adj[n] {
				if colors[b] == col {
					col++
					taken = true
					break
				}
			}
		}
		colors[n] = col
	}
}

// DegreeOrder returns nodes sorted by decreasing degree (a common greedy
// coloring heuristic), restricted to the provided subset.
func DegreeOrder(g *Graph, subset []int) []int {
	out := append([]int(nil), subset...)
	slices.SortFunc(out, func(a, b int) int {
		if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return out
}
