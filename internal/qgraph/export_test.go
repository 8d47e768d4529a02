package qgraph

// Oracles the tests check GreedyColor and the heavy-hex lattice with. They
// are exported so the external scale tests can use them too.

// Edges returns all edges (a < b), sorted.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for a, nb := range g.adj {
		for _, b := range nb {
			if a < b {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}

// IsBipartite reports whether the graph is 2-colorable.
func (g *Graph) IsBipartite() bool {
	color := make([]int, g.N)
	for i := range color {
		color[i] = -1
	}
	queue := make([]int, 0, g.N)
	for s := 0; s < g.N; s++ {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range g.adj[u] {
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

// Coloring maps node -> color index (>= 0); nodes absent from the map are
// uncolored.
type Coloring map[int]int

// ValidateColoring checks that no edge of g connects same-colored nodes
// among the colored nodes, returning the first violating edge if any.
func ValidateColoring(g *Graph, c Coloring) (ok bool, bad [2]int) {
	for _, e := range g.Edges() {
		ca, aok := c[e[0]]
		cb, bok := c[e[1]]
		if aok && bok && ca == cb {
			return false, e
		}
	}
	return true, [2]int{-1, -1}
}

// MaxColor returns the largest color index used, or -1 for an empty
// coloring.
func (c Coloring) MaxColor() int {
	m := -1
	for _, col := range c {
		if col > m {
			m = col
		}
	}
	return m
}
