package qgraph

import (
	"slices"
	"testing"
	"testing/quick"
)

func line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestEdgesAndNeighbors(t *testing.T) {
	g := line(4)
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("edge membership wrong")
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("neighbors(1) = %v", nb)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Error("degrees wrong")
	}
	if len(g.Edges()) != 3 {
		t.Error("edge count wrong")
	}
}

func TestBipartite(t *testing.T) {
	if !line(5).IsBipartite() {
		t.Error("path should be bipartite")
	}
	tri := New(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(0, 2)
	if tri.IsBipartite() {
		t.Error("triangle should not be bipartite")
	}
	// Even cycles are bipartite, odd are not.
	c6 := New(6)
	for i := 0; i < 6; i++ {
		c6.AddEdge(i, (i+1)%6)
	}
	if !c6.IsBipartite() {
		t.Error("C6 should be bipartite")
	}
}

func TestComponents(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components: %v", comps)
	}
	if len(comps[0]) != 2 || comps[1][0] != 2 {
		t.Errorf("components: %v", comps)
	}
}

// uncolored returns a coloring slice of n nodes, all uncolored.
func uncolored(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = -1
	}
	return c
}

// asColoring returns the colored nodes of a coloring slice as a Coloring.
func asColoring(colors []int) Coloring {
	c := Coloring{}
	for n, col := range colors {
		if col >= 0 {
			c[n] = col
		}
	}
	return c
}

func TestGreedyColorRespectsConstraints(t *testing.T) {
	g := line(6)
	colors := uncolored(6)
	colors[2] = 1 // pin node 2 to color 1
	// Color 0 is forbidden for every colored node.
	GreedyColor(g, []int{0, 1, 3, 4, 5}, colors, 1)
	c := asColoring(colors)
	if c[2] != 1 {
		t.Error("fixed color changed")
	}
	for n := 0; n < 6; n++ {
		if n != 2 && c[n] == 0 {
			t.Errorf("forbidden color used on %d", n)
		}
	}
	if ok, bad := ValidateColoring(g, c); !ok {
		t.Errorf("invalid coloring on edge %v: %v", bad, c)
	}
}

func TestGreedyColorProperty(t *testing.T) {
	// On random graphs, greedy coloring (nothing pinned, lowest color 0)
	// is always valid and uses at most maxDegree+1 colors.
	f := func(seed int64) bool {
		n := 8
		g := New(n)
		s := seed
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s = s*6364136223846793005 + 1442695040888963407
				if (s>>33)&3 == 0 {
					g.AddEdge(i, j)
				}
			}
		}
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		colors := uncolored(n)
		GreedyColor(g, order, colors, 0)
		c := asColoring(colors)
		if ok, _ := ValidateColoring(g, c); !ok {
			return false
		}
		maxDeg := 0
		for i := 0; i < n; i++ {
			if d := g.Degree(i); d > maxDeg {
				maxDeg = d
			}
		}
		return c.MaxColor() <= maxDeg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGreedyColorUnbounded colours a 70-node clique, which needs 70
// colours above the lowest: GreedyColor sets no colour limit and
// allocates nothing.
func TestGreedyColorUnbounded(t *testing.T) {
	const n = 70
	g := New(n)
	order := make([]int, n)
	for a := range order {
		order[a] = a
		for b := a + 1; b < n; b++ {
			g.AddEdge(a, b)
		}
	}
	colors := uncolored(n)
	allocs := testing.AllocsPerRun(10, func() {
		for a := range colors {
			colors[a] = -1
		}
		GreedyColor(g, order, colors, 1)
	})
	if allocs != 0 {
		t.Errorf("GreedyColor allocates %.1f times per call, want 0", allocs)
	}
	for a, col := range colors {
		if col != a+1 {
			t.Fatalf("node %d of the clique got colour %d, want %d", a, col, a+1)
		}
	}
}

func TestDegreeOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	order := DegreeOrder(g, []int{0, 1, 2, 3})
	if order[0] != 1 {
		t.Errorf("highest-degree node should come first: %v", order)
	}
}

func TestValidateColoringDetectsConflict(t *testing.T) {
	g := line(3)
	bad := Coloring{0: 1, 1: 1}
	if ok, edge := ValidateColoring(g, bad); ok || edge != [2]int{0, 1} {
		t.Error("conflict not detected")
	}
}

func TestDistances(t *testing.T) {
	// Line 0-1-2-3 plus an isolated node 4.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	all := g.AllDistances()
	if want := []int{0, 1, 2, 3, -1}; !slices.Equal(all[0], want) {
		t.Fatalf("AllDistances()[0] = %v, want %v", all[0], want)
	}
	for i := 0; i < g.N; i++ {
		if all[i][i] != 0 {
			t.Errorf("AllDistances()[%d][%d] = %d, want 0", i, i, all[i][i])
		}
		for j := 0; j < g.N; j++ {
			if all[i][j] != all[j][i] {
				t.Errorf("distance matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if all[1][3] != 2 || all[4][2] != -1 {
		t.Errorf("unexpected AllDistances: %v", all)
	}
}
