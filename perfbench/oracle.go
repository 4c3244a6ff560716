package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"graphulo"
	"graphulo/internal/algo"
	"graphulo/internal/gen"
	"graphulo/internal/semiring"
	"graphulo/internal/sparse"
)

// graphSeed fixes the generator of the graphs the workloads store (the
// seed the repository's other benchmarks use, giving 2,129 edges at
// scale 8 and 48,513 at scale 12). A fixed graph keeps the work per
// kernel call the same across runs, so run-to-run spread measures the
// system; --seed varies the sampled probes and BFS sources, the ingest
// order and the streamed edges.
const graphSeed = 11

// rmat is the deduplicated undirected Graph500 RMAT graph of the given
// scale.
func rmat(scale int, seed uint64) graphulo.Graph {
	return graphulo.DedupGraph(graphulo.RMAT(graphulo.Graph500(scale, seed)))
}

// shuffled returns g with its edges in a seeded random order.
func shuffled(g graphulo.Graph, rng *rand.Rand) graphulo.Graph {
	out := graphulo.Graph{N: g.N, Edges: append([]graphulo.Edge(nil), g.Edges...)}
	rng.Shuffle(len(out.Edges), func(i, j int) { out.Edges[i], out.Edges[j] = out.Edges[j], out.Edges[i] })
	return out
}

// remap relabels every vertex v as 2v+parity, so two graphs remapped
// with different parities share no vertex.
func remap(g graphulo.Graph, parity int) graphulo.Graph {
	out := graphulo.Graph{N: 2 * g.N, Edges: make([]graphulo.Edge, len(g.Edges))}
	for i, e := range g.Edges {
		out.Edges[i] = graphulo.Edge{U: 2*e.U + parity, V: 2*e.V + parity}
	}
	return out
}

// kernelOracle holds the in-memory answers the paper kernels are
// checked against, computed by internal/sparse and internal/algo on the
// same graph.
type kernelOracle struct {
	adj      *sparse.Matrix // 0/1 symmetric adjacency
	square   *sparse.Matrix // AᵀA under plus.times (A is symmetric)
	ktruss   *sparse.Matrix
	jaccard  *sparse.Matrix
	tri      float64
	pagerank map[string]float64
	products int // partial products of AᵀA: Σ_k deg(k)²
}

// PageRank parameters: tol is far below any reachable delta, so both
// the table kernel and the oracle run exactly prIters iterations.
const (
	prAlpha = 0.15
	prTol   = 1e-300
	prIters = 10
	prEps   = 1e-9
	kTrussK = 4
)

func newKernelOracle(g graphulo.Graph) *kernelOracle {
	adj := gen.AdjacencyPattern(g)
	o := &kernelOracle{
		adj:     adj,
		square:  sparse.SpGEMM(sparse.Transpose(adj), adj, semiring.PlusTimes),
		ktruss:  algo.KTrussAdj(adj, kTrussK),
		jaccard: algo.Jaccard(adj),
		tri:     algo.TriangleCount(adj),
	}
	for i := 0; i < adj.Rows(); i++ {
		d := adj.RowNNZ(i)
		o.products += d * d
	}
	o.pagerank = pagerankOracle(adj)
	return o
}

// pagerankOracle runs algo.PageRank over the vertices that have edges:
// the table kernel takes its vertex set from the degree table, which
// holds no isolated vertex.
func pagerankOracle(adj *sparse.Matrix) map[string]float64 {
	var live []int
	index := map[int]int{}
	for i := 0; i < adj.Rows(); i++ {
		if adj.RowNNZ(i) > 0 {
			index[i] = len(live)
			live = append(live, i)
		}
	}
	var ts []sparse.Triple
	for _, t := range adj.Triples() {
		ts = append(ts, sparse.Triple{Row: index[t.Row], Col: index[t.Col], Val: t.Val})
	}
	sub := sparse.NewFromTriples(len(live), len(live), ts, semiring.PlusTimes)
	res := algo.PageRank(sub, prAlpha, prTol, prIters)
	out := make(map[string]float64, len(live))
	for i, v := range live {
		out[graphulo.VertexName(v)] = res.Scores[i]
	}
	return out
}

// matchAssoc checks that got holds exactly the nonzeros of want that
// keep(u, v) selects, each within eps.
func matchAssoc(got *graphulo.Assoc, want *sparse.Matrix, eps float64, keep func(u, v int) bool) error {
	n := 0
	for _, e := range got.Entries() {
		u, err1 := graphulo.ParseVertex(e.Row)
		v, err2 := graphulo.ParseVertex(e.Col)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("unparseable cell (%q, %q)", e.Row, e.Col)
		}
		if u >= want.Rows() || v >= want.Cols() || !keep(u, v) {
			return fmt.Errorf("unexpected cell (%d, %d)", u, v)
		}
		if w := want.At(u, v); math.Abs(w-e.Val) > eps*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("cell (%d, %d) = %v, oracle %v", u, v, e.Val, w)
		}
		n++
	}
	expect := 0
	for _, t := range want.Triples() {
		if t.Val != 0 && keep(t.Row, t.Col) {
			expect++
		}
	}
	if n != expect {
		return fmt.Errorf("%d cells, oracle has %d", n, expect)
	}
	return nil
}

func all(int, int) bool         { return true }
func upper(u, v int) bool       { return u < v }
func closeTo(a, b float64) bool { return math.Abs(a-b) <= prEps*math.Max(1, math.Abs(b)) }

func matchRanks(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, oracle has %d", len(got), len(want))
	}
	for v, w := range want {
		if g, ok := got[v]; !ok || !closeTo(g, w) {
			return fmt.Errorf("rank of %s = %v, oracle %v", v, g, w)
		}
	}
	return nil
}

// bfsOracle is the hop-limited visited set the table BFS must
// reproduce, from algo.BFSLevels: vertex key → hop level for every
// vertex within hops of src.
func bfsOracle(adj *sparse.Matrix, src, hops int) map[string]int {
	out := map[string]int{}
	for v, l := range algo.BFSLevels(adj, src) {
		if l >= 0 && l <= hops {
			out[graphulo.VertexName(v)] = l
		}
	}
	return out
}

func matchLevels(got, want map[string]int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d vertices reached, oracle reaches %d", len(got), len(want))
	}
	for v, l := range want {
		if g, ok := got[v]; !ok || g != l {
			return fmt.Errorf("vertex %s at level %d, oracle %d", v, g, l)
		}
	}
	return nil
}

// liveVertices returns the ids that have at least one edge.
func liveVertices(adj *sparse.Matrix) []int {
	var out []int
	for i := 0; i < adj.Rows(); i++ {
		if adj.RowNNZ(i) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// sources draws n BFS sources stratified by degree: the live vertices
// sorted by degree, cut into n equal strata, one vertex from each at a
// seeded offset, returned in seeded order. Every sample then has the
// graph's degree mix, so the latency median does not hinge on how many
// hubs one seed happens to draw.
func sources(adj *sparse.Matrix, live []int, rng *rand.Rand, n int) []int {
	byDeg := append([]int(nil), live...)
	sort.SliceStable(byDeg, func(i, j int) bool { return adj.RowNNZ(byDeg[i]) < adj.RowNNZ(byDeg[j]) })
	step := float64(len(byDeg)) / float64(n)
	off := rng.Float64() * step
	out := make([]int, n)
	for i := range out {
		out[i] = byDeg[int(off+float64(i)*step)%len(byDeg)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
