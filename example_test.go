package algclique_test

import (
	"fmt"

	cc "github.com/algebraic-clique/algclique"
)

func ExampleClique_MatMul() {
	a := [][]int64{
		{1, 2},
		{3, 4},
	}
	b := [][]int64{
		{5, 6},
		{7, 8},
	}
	s, err := cc.NewClique(2)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	p, _, err := s.MatMul(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Println(p[0], p[1])
	// Output: [19 22] [43 50]
}

func ExampleClique_CountTriangles() {
	g := cc.Complete(5, false) // K5 has C(5,3) = 10 triangles
	s, err := cc.NewClique(g.N())
	if err != nil {
		panic(err)
	}
	defer s.Close()
	count, stats, err := s.CountTriangles(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d triangles on a %d-node clique\n", count, stats.N)
	// Output: 10 triangles on a 8-node clique
}

func ExampleClique_DetectFourCycle() {
	square, err := cc.NewClique(4)
	if err != nil {
		panic(err)
	}
	defer square.Close()
	found, _, err := square.DetectFourCycle(cc.Cycle(4, false))
	if err != nil {
		panic(err)
	}
	pentagon, err := cc.NewClique(5)
	if err != nil {
		panic(err)
	}
	defer pentagon.Close()
	notFound, _, err := pentagon.DetectFourCycle(cc.Cycle(5, false))
	if err != nil {
		panic(err)
	}
	fmt.Println(found, notFound)
	// Output: true false
}

func ExampleClique_APSP() {
	g := cc.NewWeighted(4, true)
	g.SetEdge(0, 1, 2)
	g.SetEdge(1, 2, 3)
	g.SetEdge(2, 3, 1)
	g.SetEdge(0, 3, 10)
	s, err := cc.NewClique(g.N())
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, _, err := s.APSP(g)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Dist[0][3], res.Path(0, 3))
	// Output: 6 [0 1 2 3]
}

func ExampleClique_Girth() {
	s, err := cc.NewClique(10)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	g, ok, _, err := s.Girth(cc.Petersen(), cc.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(g, ok)
	// Output: 5 true
}

func ExampleClique_DistanceProduct() {
	inf := cc.Inf
	w := [][]int64{
		{0, 4, inf},
		{inf, 0, 5},
		{2, inf, 0},
	}
	s, err := cc.NewClique(len(w))
	if err != nil {
		panic(err)
	}
	defer s.Close()
	p, _, err := s.DistanceProduct(w, w)
	if err != nil {
		panic(err)
	}
	fmt.Println(p[0][2], p[2][1]) // 0→1→2 and 2→0→1
	// Output: 9 6
}

func ExampleClique_TransitiveClosure() {
	g := cc.NewGraph(4, true)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	s, err := cc.NewClique(g.N())
	if err != nil {
		panic(err)
	}
	defer s.Close()
	reach, _, err := s.TransitiveClosure(g)
	if err != nil {
		panic(err)
	}
	fmt.Println(reach[0][2], reach[2][0])
	// Output: 1 0
}

func ExampleClique_APSPUnweighted() {
	s, err := cc.NewClique(6)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	res, _, err := s.APSPUnweighted(cc.Path(6, false))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Dist[0][5])
	// Output: 5
}
