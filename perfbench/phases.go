package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"graphulo"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
)

// graphSet is one graph stored in the cluster together with the
// in-memory copy its answers are checked against.
type graphSet struct {
	tg    *graphulo.TableGraph
	g     graphulo.Graph
	adj   *sparse.Matrix
	live  []int
	ko    *kernelOracle // nil unless kernels run on this graph
	a, at string
}

func newGraphSet(tg *graphulo.TableGraph, g graphulo.Graph, kernels bool) *graphSet {
	gs := &graphSet{tg: tg, g: g}
	gs.a, gs.at, _ = tg.Tables()
	if kernels {
		gs.ko = newKernelOracle(g)
		gs.adj = gs.ko.adj
	} else {
		gs.adj = graphulo.AdjacencyPat(g)
	}
	gs.live = liveVertices(gs.adj)
	return gs
}

// splitGraph pre-splits a graph's A and Aᵀ tables into parts tablets of
// equal vertex-id width.
func splitGraph(db *graphulo.DB, tg *graphulo.TableGraph, n, parts int) error {
	var splits []string
	for i := 1; i < parts; i++ {
		splits = append(splits, graphulo.VertexName(i*n/parts))
	}
	a, at, _ := tg.Tables()
	ops := db.Connector().TableOperations()
	for _, t := range []string{a, at} {
		if err := ops.AddSplits(t, splits); err != nil {
			return fmt.Errorf("split %s: %w", t, err)
		}
	}
	return nil
}

func dropTable(db *graphulo.DB, name string) {
	ops := db.Connector().TableOperations()
	if ops.Exists(name) {
		must(ops.Delete(name), "drop "+name)
	}
}

// kernelRound calls the paper's kernels once each, in the fixed order
// server TableMult, TableMultClient, kTruss, Jaccard, TriangleCount,
// PageRank, checking every answer against the oracle.
func (r *run) kernelRound(parent *liveSpan, db *graphulo.DB, gs *graphSet, round int, tenant string) {
	ko := gs.ko
	sq := fmt.Sprintf("%sSq%d", gs.a, round)
	r.op(parent, "tablemult", "core", func() (result, error) {
		n, err := db.TableMultOpts(gs.at, gs.a, sq, graphulo.MultOptions{Semiring: "plus.times", Tenant: tenant})
		return result{entries: n, check: func() error { return checkTable(db, sq, ko.square) }}, err
	})
	r.recordQuery(db, "tablemult")
	dropTable(db, sq)
	sqc := fmt.Sprintf("%sSqc%d", gs.a, round)
	r.op(parent, "tablemult_client", "core", func() (result, error) {
		n, err := db.TableMultClient(gs.at, gs.a, sqc, "plus.times")
		return result{entries: n, check: func() error { return checkTable(db, sqc, ko.square) }}, err
	})
	dropTable(db, sqc)
	r.op(parent, "ktruss", "core", func() (result, error) {
		got, err := gs.tg.KTruss(kTrussK)
		if err != nil {
			return result{}, err
		}
		return result{entries: got.NNZ(), check: func() error { return matchAssoc(got, ko.ktruss, 1e-9, all) }}, nil
	})
	r.recordQuery(db, "ktruss")
	r.op(parent, "jaccard", "core", func() (result, error) {
		got, err := gs.tg.Jaccard()
		if err != nil {
			return result{}, err
		}
		return result{entries: got.NNZ(), check: func() error { return matchAssoc(got, ko.jaccard, 1e-9, upper) }}, nil
	})
	r.op(parent, "tricount", "core", func() (result, error) {
		got, err := gs.tg.TriangleCount()
		return result{entries: 1, check: func() error {
			if got != ko.tri {
				return fmt.Errorf("%v triangles, oracle %v", got, ko.tri)
			}
			return nil
		}}, err
	})
	r.op(parent, "pagerank", "core", func() (result, error) {
		got, iters, err := gs.tg.PageRank(prAlpha, prTol, prIters)
		return result{entries: len(got), check: func() error {
			if iters != prIters {
				return fmt.Errorf("%d iterations, want %d", iters, prIters)
			}
			return matchRanks(got, ko.pagerank)
		}}, err
	})
}

func checkTable(db *graphulo.DB, table string, want *sparse.Matrix) error {
	got, err := db.ReadAssoc(table)
	if err != nil {
		return fmt.Errorf("read back %s: %w", table, err)
	}
	return matchAssoc(got, want, 1e-9, all)
}

// probe is one HasEdge question with its known answer.
type probe struct {
	u, v int
	want bool
}

// probes draws n edge probes, half on edges of the graph (either
// orientation) and half on vertex pairs with no edge.
func probes(gs *graphSet, rng *rand.Rand, n int) []probe {
	out := make([]probe, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			e := gs.g.Edges[rng.Intn(len(gs.g.Edges))]
			if rng.Intn(2) == 0 {
				e.U, e.V = e.V, e.U
			}
			out = append(out, probe{e.U, e.V, true})
			continue
		}
		for {
			u, v := gs.live[rng.Intn(len(gs.live))], gs.live[rng.Intn(len(gs.live))]
			if u != v && gs.adj.At(u, v) == 0 {
				out = append(out, probe{u, v, false})
				break
			}
		}
	}
	return out
}

func (r *run) hasEdge(parent *liveSpan, gs *graphSet, p probe) {
	r.op(parent, "lookup", "accumulo", func() (result, error) {
		got, err := gs.tg.HasEdge(p.u, p.v)
		return result{entries: 1, check: func() error {
			if got != p.want {
				return fmt.Errorf("HasEdge(%d, %d) = %v, want %v", p.u, p.v, got, p.want)
			}
			return nil
		}}, err
	})
}

func (r *run) bfs(parent *liveSpan, gs *graphSet, src int, tenant string) {
	r.op(parent, "bfs", "core", func() (result, error) {
		got, err := gs.tg.BFSWithOptions([]int{src}, 2, graphulo.BFSOptions{Tenant: tenant})
		return result{entries: len(got), check: func() error {
			return matchLevels(got, bfsOracle(gs.adj, src, 2))
		}}, err
	})
}

// cycles runs step until budget has passed and at least minCycles
// have run. Every cycle calls each op kind of the workload, so each
// latency median samples the whole run rather than one stretch of it,
// and each starts from a collected heap, so one cycle's garbage is not
// charged to the next cycle's first ops. Steps run the short reads
// first and the kernels, which leave the most garbage, last.
func (r *run) cycles(budget time.Duration, minCycles int, step func(sp *liveSpan, i int)) {
	t0 := time.Now()
	for i := 0; i < minCycles || time.Since(t0) < budget; i++ {
		runtime.GC()
		sp := r.phase(fmt.Sprintf("cycle %d", i))
		step(sp, i)
		sp.end(nil)
	}
}

// scan streams the whole A table of gs, checking the entry count.
// Traced runs also time each EntryStream.Next.
func (r *run) scan(parent *liveSpan, db *graphulo.DB, gs *graphSet) {
	want := 2 * len(gs.g.Edges)
	var nextNS time.Duration
	n := 0
	t0 := time.Now()
	ok := r.op(parent, "scan", "accumulo", func() (result, error) {
		sc, err := db.Connector().CreateScanner(gs.a)
		if err != nil {
			return result{}, err
		}
		st, err := sc.Stream()
		if err != nil {
			return result{}, err
		}
		defer st.Close()
		for {
			var ok bool
			if r.tr != nil {
				t := time.Now()
				_, ok = st.Next()
				nextNS += time.Since(t)
			} else {
				_, ok = st.Next()
			}
			if !ok {
				break
			}
			n++
		}
		return result{entries: n, check: func() error {
			if n != want {
				return fmt.Errorf("scan saw %d entries, want %d", n, want)
			}
			return nil
		}}, st.Err()
	})
	if ok {
		r.addRate("scan", float64(n)/time.Since(t0).Seconds())
	}
	if r.tr != nil {
		r.mu.Lock()
		r.nextNS += float64(nextNS)
		r.mu.Unlock()
	}
}

// batches cuts edges into consecutive slices of at most size edges.
func batches(edges []graphulo.Edge, size int) [][]graphulo.Edge {
	var out [][]graphulo.Edge
	for len(edges) > 0 {
		n := min(size, len(edges))
		out = append(out, edges[:n])
		edges = edges[n:]
	}
	return out
}

// ingest loads g into tg from writers goroutines, each taking every
// writers-th batch, and ends with a Flush of the graph's three tables.
// It returns the wall time from the first batch to the last flush; the
// last flush checks that A holds every edge in both orientations.
func (r *run) ingest(parent *liveSpan, db *graphulo.DB, tg *graphulo.TableGraph, g graphulo.Graph, batch, writers int) time.Duration {
	bs := batches(g.Edges, batch)
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(bs); i += writers {
				b := graphulo.Graph{N: g.N, Edges: bs[i]}
				r.op(parent, "ingest_batch", "accumulo", func() (result, error) {
					return result{entries: len(b.Edges)}, tg.Ingest(b)
				})
			}
		}(w)
	}
	wg.Wait()
	a, at, deg := tg.Tables()
	ops := db.Connector().TableOperations()
	for i, t := range []string{a, at, deg} {
		var check func() error
		if i == 2 {
			check = func() error { return checkEntryCount(db, a, 2*len(g.Edges)) }
		}
		r.op(parent, "flush", "store", func() (result, error) {
			return result{check: check}, ops.Flush(t)
		})
	}
	return time.Since(t0)
}

// checkEntryCount scans table and compares its entry count with want.
func checkEntryCount(db *graphulo.DB, table string, want int) error {
	n := 0
	if err := forEachEntry(db, table, func(skv.Entry) { n++ }); err != nil {
		return err
	}
	if n != want {
		return fmt.Errorf("%s holds %d entries, want %d", table, n, want)
	}
	return nil
}

// forEachEntry visits every entry of table in key order, one tablet
// per scan: a scan spanning more tablets than MaxConcurrentPasses
// hangs, whether through a Scanner or a BatchScanner.
func forEachEntry(db *graphulo.DB, table string, fn func(skv.Entry)) error {
	splits, err := db.Connector().TableOperations().Splits(table)
	if err != nil {
		return err
	}
	bounds := append(append([]string{""}, splits...), "")
	for i := 0; i+1 < len(bounds); i++ {
		sc, err := db.Connector().CreateScanner(table)
		if err != nil {
			return err
		}
		sc.SetRange(skv.RowRange(bounds[i], bounds[i+1]))
		st, err := sc.Stream()
		if err != nil {
			return err
		}
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			fn(e)
		}
		st.Close()
		if err := st.Err(); err != nil {
			return err
		}
	}
	return nil
}
