package graphs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxReadNodes is the largest node count ReadEdgeList accepts in a header.
// A header is a few bytes, and what it asks for is allocated before the
// first edge is read: a Graph's bitset adjacency costs n²/8 bytes, 32 MiB
// at the bound, so an unbounded count lets a one-line file take the
// process down.
const MaxReadNodes = 1 << 14

// MaxReadWeightedNodes is ReadWeightedEdgeList's bound: a Weighted's matrix
// costs 8n² bytes, the same 32 MiB at this bound.
const MaxReadWeightedNodes = 1 << 11

// readNodeCount parses the <count> field of a header line.
func readNodeCount(line int, field string, limit int) (int, error) {
	n, err := strconv.Atoi(field)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("graphs: line %d: bad node count %q", line, field)
	}
	if n > limit {
		return 0, fmt.Errorf("graphs: line %d: node count %d exceeds the reader's limit of %d", line, n, limit)
	}
	return n, nil
}

// WriteEdgeList serialises a graph in a plain text format:
//
//	# comment lines are allowed
//	n <nodes> <directed|undirected>
//	<u> <v>            (unweighted)
//
// Undirected edges appear once (u < v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	kind := "undirected"
	if g.Directed() {
		kind = "directed"
	}
	if _, err := fmt.Fprintf(w, "n %d %s\n", g.N(), kind); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if g.Directed() || u < v {
				if _, err := fmt.Fprintf(w, "%d %d\n", u, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ReadEdgeList parses the WriteEdgeList format. Node counts above
// MaxReadNodes are rejected.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if fields[0] == "n" {
			if g != nil {
				return nil, fmt.Errorf("graphs: line %d: duplicate header", line)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graphs: line %d: header wants 'n <count> <kind>'", line)
			}
			n, err := readNodeCount(line, fields[1], MaxReadNodes)
			if err != nil {
				return nil, err
			}
			switch fields[2] {
			case "directed":
				g = NewGraph(n, true)
			case "undirected":
				g = NewGraph(n, false)
			default:
				return nil, fmt.Errorf("graphs: line %d: kind %q not directed/undirected", line, fields[2])
			}
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("graphs: line %d: edge before header", line)
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graphs: line %d: edge wants '<u> <v>'", line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
			return nil, fmt.Errorf("graphs: line %d: bad edge %q", line, sc.Text())
		}
		if !g.HasEdge(u, v) {
			g.AddEdge(u, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphs: reading edge list: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graphs: missing 'n <count> <kind>' header")
	}
	return g, nil
}

// WriteWeightedEdgeList serialises a weighted graph:
//
//	n <nodes> <directed|undirected> weighted
//	<u> <v> <weight>
func WriteWeightedEdgeList(w io.Writer, g *Weighted) error {
	kind := "undirected"
	if g.Directed() {
		kind = "directed"
	}
	if _, err := fmt.Fprintf(w, "n %d %s weighted\n", g.N(), kind); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v || !g.HasEdge(u, v) {
				continue
			}
			if !g.Directed() && u > v {
				continue
			}
			if _, err := fmt.Fprintf(w, "%d %d %d\n", u, v, g.Weight(u, v)); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadWeightedEdgeList parses the WriteWeightedEdgeList format. Node counts
// above MaxReadWeightedNodes are rejected. Weights are stored as given (see
// Weighted.SetEdge), and a later line for the same edge overrides an
// earlier one.
func ReadWeightedEdgeList(r io.Reader) (*Weighted, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var g *Weighted
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if fields[0] == "n" {
			if g != nil {
				return nil, fmt.Errorf("graphs: line %d: duplicate header", line)
			}
			if len(fields) != 4 || fields[3] != "weighted" {
				return nil, fmt.Errorf("graphs: line %d: header wants 'n <count> <kind> weighted'", line)
			}
			n, err := readNodeCount(line, fields[1], MaxReadWeightedNodes)
			if err != nil {
				return nil, err
			}
			switch fields[2] {
			case "directed":
				g = NewWeighted(n, true)
			case "undirected":
				g = NewWeighted(n, false)
			default:
				return nil, fmt.Errorf("graphs: line %d: kind %q not directed/undirected", line, fields[2])
			}
			continue
		}
		if g == nil {
			return nil, fmt.Errorf("graphs: line %d: edge before header", line)
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("graphs: line %d: edge wants '<u> <v> <weight>'", line)
		}
		u, err1 := strconv.Atoi(fields[0])
		v, err2 := strconv.Atoi(fields[1])
		wt, err3 := strconv.ParseInt(fields[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || u < 0 || v < 0 || u >= g.N() || v >= g.N() || u == v {
			return nil, fmt.Errorf("graphs: line %d: bad weighted edge %q", line, sc.Text())
		}
		g.SetEdge(u, v, wt)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphs: reading edge list: %w", err)
	}
	if g == nil {
		return nil, fmt.Errorf("graphs: missing header")
	}
	return g, nil
}
