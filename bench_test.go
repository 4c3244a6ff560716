package graphulo

// The benchmark harness regenerates every table and figure of the paper
// plus the §IV ablations (see DESIGN.md §4 / EXPERIMENTS.md for the
// mapping). Run with:
//
//	go test -bench=. -benchmem .
//
// Naming convention: BenchmarkTable1_* covers the seven Table I classes;
// BenchmarkFig2/Fig3 the worked examples at scale; BenchmarkKernels_*
// the GraphBLAS kernel suite of §I; Benchmark*Strategy/*VsClient the
// §IV design-choice ablations.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphulo/internal/accumulo"
	"graphulo/internal/skv"
)

// --- workload helpers (built once per size, cached) ---

var benchGraphs = map[int]Graph{}

func rmatGraph(scale int) Graph {
	if g, ok := benchGraphs[scale]; ok {
		return g
	}
	g := DedupGraph(RMAT(Graph500(scale, 11)))
	benchGraphs[scale] = g
	return g
}

// --- Table I: one benchmark per algorithm class ---

func BenchmarkTable1_Traversal_BFS(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := rmatGraph(scale)
		adj := AdjacencyPat(g)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BFSLevels(adj, i%g.N)
			}
		})
	}
}

func BenchmarkTable1_Subgraph_KTruss(b *testing.B) {
	for _, scale := range []int{7, 8, 9} {
		g := rmatGraph(scale)
		E := Incidence(g)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				KTrussEdge(E, 4)
			}
		})
	}
}

func BenchmarkTable1_Centrality_PageRank(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := rmatGraph(scale)
		adj := AdjacencyPat(g)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PageRank(adj, 0.15, 1e-10, 500)
			}
		})
	}
}

func BenchmarkTable1_Centrality_Eigenvector(b *testing.B) {
	g := rmatGraph(10)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		EigenvectorCentrality(adj, 1e-10, 1000)
	}
}

func BenchmarkTable1_Centrality_Katz(b *testing.B) {
	g := rmatGraph(10)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		KatzCentrality(adj, 0.001, 1e-10, 500)
	}
}

func BenchmarkTable1_Centrality_Betweenness(b *testing.B) {
	g := rmatGraph(7)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		BetweennessCentrality(adj)
	}
}

func BenchmarkTable1_Similarity_Jaccard(b *testing.B) {
	for _, scale := range []int{8, 9, 10} {
		g := rmatGraph(scale)
		adj := AdjacencyPat(g)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Jaccard(adj)
			}
		})
	}
}

func BenchmarkTable1_Community_NMF(b *testing.B) {
	for _, tweets := range []int{2000, 8000, 20000} {
		corpus := NewTweets(TweetCorpusConfig{NumTweets: tweets, Seed: 13})
		m, _, _ := corpus.A.Matrix()
		b.Run(fmt.Sprintf("tweets%d", tweets), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NMF(m, NMFConfig{Topics: 5, MaxIter: 20, Seed: uint64(i)})
			}
		})
	}
}

func BenchmarkTable1_Prediction_LinkPrediction(b *testing.B) {
	g := rmatGraph(9)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		LinkPrediction(adj, 10)
	}
}

func BenchmarkTable1_ShortestPath_BellmanFord(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := rmatGraph(scale)
		var ts []Triple
		for i, e := range g.Edges {
			w := 1 + float64(i%7)
			ts = append(ts, Triple{Row: e.U, Col: e.V, Val: w},
				Triple{Row: e.V, Col: e.U, Val: w})
		}
		w := NewMatrix(g.N, g.N, ts, MinPlus)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BellmanFord(w, i%g.N)
			}
		})
	}
}

// --- Figures ---

// BenchmarkFig2 measures the full Jaccard pipeline of Algorithm 2 at
// increasing scales (Fig. 2 is the worked 5-vertex instance).
func BenchmarkFig2_JaccardPipeline(b *testing.B) {
	adj := AdjacencyPat(PaperGraph())
	for i := 0; i < b.N; i++ {
		Jaccard(adj)
	}
}

// BenchmarkFig3 measures the NMF topic-modeling experiment at the
// paper's corpus size.
func BenchmarkFig3_TwentyKTweetsNMF(b *testing.B) {
	corpus := NewTweets(TweetCorpusConfig{NumTweets: 20000, Seed: 42})
	m, _, _ := corpus.A.Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NMF(m, NMFConfig{Topics: 5, MaxIter: 20, Seed: 7})
	}
}

// --- GraphBLAS kernel suite (§I) ---

func BenchmarkKernels_SpGEMM(b *testing.B) {
	for _, scale := range []int{8, 10, 12} {
		g := rmatGraph(scale)
		adj := AdjacencyPat(g)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SpGEMM(adj, adj, PlusTimes)
			}
		})
	}
}

func BenchmarkKernels_SpGEMMParallel(b *testing.B) {
	g := rmatGraph(12)
	adj := AdjacencyPat(g)
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SpGEMMParallel(adj, adj, PlusTimes, workers)
			}
		})
	}
}

func BenchmarkKernels_SpMV(b *testing.B) {
	g := rmatGraph(12)
	adj := AdjacencyPat(g)
	x := make([]float64, g.N)
	for i := range x {
		x[i] = float64(i % 3)
	}
	for i := 0; i < b.N; i++ {
		SpMV(adj, x, PlusTimes)
	}
}

func BenchmarkKernels_SpMSpV(b *testing.B) {
	g := rmatGraph(12)
	adj := AdjacencyPat(g)
	frontier := &Vector{N: g.N, Idx: []int{0, 5, 9}, Val: []float64{1, 1, 1}}
	for i := 0; i < b.N; i++ {
		SpMSpV(adj, frontier, OrAnd)
	}
}

func BenchmarkKernels_EWiseAdd(b *testing.B) {
	g := rmatGraph(12)
	adj := AdjacencyPat(g)
	adj2 := Transpose(adj)
	for i := 0; i < b.N; i++ {
		EWiseAdd(adj, adj2, PlusTimes)
	}
}

func BenchmarkKernels_Apply(b *testing.B) {
	g := rmatGraph(12)
	adj := Adjacency(g)
	op := UnaryOp(func(v float64) float64 { return v * 2 })
	for i := 0; i < b.N; i++ {
		Apply(adj, op)
	}
}

func BenchmarkKernels_Transpose(b *testing.B) {
	g := rmatGraph(12)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		Transpose(adj)
	}
}

func BenchmarkKernels_ReduceRows(b *testing.B) {
	g := rmatGraph(12)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		ReduceRows(adj, PlusMonoid)
	}
}

// --- §IV ablations ---

// (a) k-truss support: full SpGEMM + indicator vs the fused kernel the
// discussion proposes.
func BenchmarkKTrussSupportStrategy(b *testing.B) {
	g := rmatGraph(9)
	E := Incidence(g)
	b.Run("spgemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EdgeSupport(E)
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EdgeSupportFused(E)
		}
	})
}

// (b) Jaccard: the paper's triangular split vs the direct A² form.
func BenchmarkJaccardStrategy(b *testing.B) {
	for _, scale := range []int{8, 10} {
		g := rmatGraph(scale)
		adj := AdjacencyPat(g)
		b.Run(fmt.Sprintf("triangular/scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Jaccard(adj)
			}
		})
		b.Run(fmt.Sprintf("dense/scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				JaccardDense(adj)
			}
		})
	}
}

// (c) server-side TableMult vs thin-client multiply — the Graphulo
// premise. entries-written/op is the deterministic work counter: the
// server's RemoteWrite fold writes folded cells, the client writes every
// partial product.
func BenchmarkTableMultVsClient(b *testing.B) {
	for _, scale := range []int{6, 8} {
		g := rmatGraph(scale)
		for _, side := range []string{"server", "client"} {
			b.Run(fmt.Sprintf("%s/scale%d", side, scale), func(b *testing.B) {
				b.ReportAllocs()
				var written int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					db := mustOpen(ClusterConfig{TabletServers: 4})
					tg, err := db.CreateGraph("B")
					if err != nil {
						b.Fatal(err)
					}
					if err := tg.Ingest(g); err != nil {
						b.Fatal(err)
					}
					a, at, _ := tg.Tables()
					_, _, before, _ := db.Metrics()
					b.StartTimer()
					mult := db.TableMult
					if side == "client" {
						mult = db.TableMultClient
					}
					if _, err := mult(at, a, "Sq", "plus.times"); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					_, _, after, _ := db.Metrics()
					written += after - before
					db.Close()
					b.StartTimer()
				}
				b.ReportMetric(float64(written)/float64(b.N), "entries-written/op")
			})
		}
	}
}

// (d) BFS frontier strategy: sparse SpMSpV frontier vs dense SpMV.
func BenchmarkBFSFrontierStrategy(b *testing.B) {
	g := rmatGraph(11)
	adj := AdjacencyPat(g)
	b.Run("spmspv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BFSLevels(adj, i%g.N)
		}
	})
	b.Run("dense-spmv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bfsDense(adj, i%g.N)
		}
	})
}

// bfsDense is the dense-frontier BFS baseline: every step is a full
// SpMV over the boolean semiring.
func bfsDense(adj *Matrix, src int) []int {
	n := adj.Rows()
	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[src] = 0
	x := make([]float64, n)
	x[src] = 1
	for depth := 1; ; depth++ {
		y := SpMV(Transpose(adj), x, OrAnd)
		changed := false
		next := make([]float64, n)
		for i := range y {
			if y[i] != 0 && levels[i] == -1 {
				levels[i] = depth
				next[i] = 1
				changed = true
			}
		}
		if !changed {
			return levels
		}
		x = next
	}
}

// --- cluster micro-benchmarks ---

func BenchmarkClusterIngest(b *testing.B) {
	g := rmatGraph(10)
	b.ReportMetric(float64(len(g.Edges)), "edges/op")
	for i := 0; i < b.N; i++ {
		db := mustOpen(ClusterConfig{TabletServers: 4})
		tg, err := db.CreateGraph("I")
		if err != nil {
			b.Fatal(err)
		}
		if err := tg.Ingest(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterScan(b *testing.B) {
	g := rmatGraph(10)
	db := mustOpen(ClusterConfig{TabletServers: 4})
	tg, err := db.CreateGraph("S")
	if err != nil {
		b.Fatal(err)
	}
	if err := tg.Ingest(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.Adjacency(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterBFSServerSide(b *testing.B) {
	g := rmatGraph(10)
	db := mustOpen(ClusterConfig{TabletServers: 4})
	tg, err := db.CreateGraph("BF")
	if err != nil {
		b.Fatal(err)
	}
	if err := tg.Ingest(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tg.BFS([]int{i % g.N}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- extension algorithms (the paper's "future work" items) ---

func BenchmarkExtension_Closeness(b *testing.B) {
	g := rmatGraph(9)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		ClosenessCentrality(adj)
	}
}

func BenchmarkExtension_HITS(b *testing.B) {
	g := rmatGraph(10)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		HITS(adj, 1e-10, 1000)
	}
}

func BenchmarkExtension_ClusteringCoefficients(b *testing.B) {
	g := rmatGraph(10)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		LocalClustering(adj)
	}
}

func BenchmarkExtension_TruncatedSVD(b *testing.B) {
	g := rmatGraph(8)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		TruncatedSVD(adj, 4, 1e-8, 500)
	}
}

func BenchmarkExtension_VertexNomination(b *testing.B) {
	g := rmatGraph(10)
	adj := AdjacencyPat(g)
	for i := 0; i < b.N; i++ {
		VertexNomination(adj, []int{i % g.N}, 0.15, 200)
	}
}

func BenchmarkClusterPageRankServerSide(b *testing.B) {
	g := rmatGraph(7)
	db := mustOpen(ClusterConfig{TabletServers: 4})
	tg, err := db.CreateGraph("PRB")
	if err != nil {
		b.Fatal(err)
	}
	if err := tg.Ingest(g); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tg.PageRank(0.15, 1e-8, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Algorithm 4 ---

func BenchmarkInverseNewtonSchulz(b *testing.B) {
	for _, n := range []int{8, 16, 32, 64} {
		m := benchDiagDominant(n)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				InverseDense(m, 1e-12, 500)
			}
		})
	}
}

func benchDiagDominant(n int) *Dense {
	d := &Dense{R: n, C: n, Data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				v := float64((i*13+j*7)%5) / 10
				d.Data[i*n+j] = v
				row += v
			}
		}
		d.Data[i*n+i] = row + 2
	}
	return d
}

// --- Durable storage engine (PR 1): ingest and scan baselines ---
//
// These benchmarks pin the cost of durability — WAL append + fsync on
// the write path, rfile-backed runs on the read path — against the
// in-memory cluster, so later storage PRs (cache tiering, bulk import,
// compaction tuning) have a perf baseline. Reported metrics:
// entries/sec of raw throughput and disk-bytes/op of write
// amplification.

func benchClusterEntries(n int) []struct{ row, colq string } {
	out := make([]struct{ row, colq string }, n)
	for i := range out {
		out[i].row = fmt.Sprintf("r%07d", i%(n/4+1))
		out[i].colq = fmt.Sprintf("c%05d", i%97)
	}
	return out
}

func dirBytes(b *testing.B, path string) int64 {
	var total int64
	err := filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return total
}

func benchIngest(b *testing.B, cfg ClusterConfig, n int) {
	entries := benchClusterEntries(n)
	var disk int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if cfg.DataDir != "" {
			cfg.DataDir = b.TempDir()
		}
		db := mustOpen(cfg)
		if err := db.Connector().TableOperations().Create("T"); err != nil {
			b.Fatal(err)
		}
		w, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, e := range entries {
			if err := w.PutFloat(e.row, "", e.colq, 1); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if cfg.DataDir != "" {
			disk += dirBytes(b, cfg.DataDir)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
	if cfg.DataDir != "" {
		b.ReportMetric(float64(disk)/float64(b.N), "disk-bytes/op")
	}
}

func BenchmarkDurableVsInMemoryIngest(b *testing.B) {
	const n = 1 << 13
	b.Run("inmemory", func(b *testing.B) {
		benchIngest(b, ClusterConfig{TabletServers: 2}, n)
	})
	b.Run("durable", func(b *testing.B) {
		benchIngest(b, ClusterConfig{TabletServers: 2, DataDir: "x"}, n)
	})
	b.Run("durable-nosync", func(b *testing.B) {
		benchIngest(b, ClusterConfig{TabletServers: 2, DataDir: "x", NoSync: true}, n)
	})
}

func benchScan(b *testing.B, cfg ClusterConfig, n int) {
	entries := benchClusterEntries(n)
	if cfg.DataDir != "" {
		cfg.DataDir = b.TempDir()
	}
	db := mustOpen(cfg)
	defer db.Close()
	ops := db.Connector().TableOperations()
	if err := ops.Create("T"); err != nil {
		b.Fatal(err)
	}
	w, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if err := w.PutFloat(e.row, "", e.colq, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	// Flush so durable scans actually read rfile-backed runs.
	if err := ops.Flush("T"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		sc, err := db.Connector().CreateScanner("T")
		if err != nil {
			b.Fatal(err)
		}
		got, err := sc.Entries()
		if err != nil {
			b.Fatal(err)
		}
		if len(got) == 0 {
			b.Fatal("empty scan")
		}
		total += len(got)
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "entries/sec")
}

func BenchmarkDurableVsInMemoryScan(b *testing.B) {
	const n = 1 << 13
	b.Run("inmemory", func(b *testing.B) {
		benchScan(b, ClusterConfig{TabletServers: 2}, n)
	})
	b.Run("durable", func(b *testing.B) {
		benchScan(b, ClusterConfig{TabletServers: 2, DataDir: "x", NoSync: true}, n)
	})
}

// --- Streaming scan pipeline (PR 2) ---
//
// BenchmarkScanStreamingVsMaterialized pins the memory contrast of the
// cursor scan: a materialized whole-table scan holds every entry at
// once (peak-entries/op ≈ table size) while the streaming cursor holds
// wire batches (peak-entries/op ≈ WireBatch × ScanParallelism).
// BenchmarkTableMultScanParallelism pins the throughput side: the same
// TableMult over a table pre-split into 4 tablets, executed with a
// serial tablet walk vs the parallel worker pool.

// benchStreamTable builds a pre-split, pre-flushed table of rows×cols
// entries inside a fresh cluster.
func benchStreamTable(b *testing.B, cfg ClusterConfig, table string, rows, cols int) *DB {
	b.Helper()
	db := mustOpen(cfg)
	splits := []string{
		fmt.Sprintf("r%05d", rows/4),
		fmt.Sprintf("r%05d", rows/2),
		fmt.Sprintf("r%05d", 3*rows/4),
	}
	if err := db.Connector().TableOperations().CreateWithSplits(table, splits); err != nil {
		b.Fatal(err)
	}
	w, err := db.Connector().CreateBatchWriter(table, accumulo.BatchWriterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if err := w.PutFloat(fmt.Sprintf("r%05d", i), "", fmt.Sprintf("c%03d", j), 1); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkScanStreamingVsMaterialized(b *testing.B) {
	const rows, cols = 4096, 8 // 32768 entries
	cfg := ClusterConfig{TabletServers: 4, WireBatch: 512, ScanParallelism: 4}
	b.Run("materialized", func(b *testing.B) {
		db := benchStreamTable(b, cfg, "T", rows, cols)
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		peak := 0
		for i := 0; i < b.N; i++ {
			sc, err := db.Connector().CreateScanner("T")
			if err != nil {
				b.Fatal(err)
			}
			entries, err := sc.Entries()
			if err != nil {
				b.Fatal(err)
			}
			if len(entries) > peak {
				peak = len(entries)
			}
		}
		b.ReportMetric(float64(peak), "peak-entries/op")
	})
	b.Run("streaming", func(b *testing.B) {
		db := benchStreamTable(b, cfg, "T", rows, cols)
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc, err := db.Connector().CreateScanner("T")
			if err != nil {
				b.Fatal(err)
			}
			st, err := sc.Stream()
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				n++
			}
			if err := st.Err(); err != nil {
				b.Fatal(err)
			}
			if n != rows*cols {
				b.Fatalf("streamed %d entries, want %d", n, rows*cols)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(db.ScanMetrics().MaxEntriesBuffered), "peak-entries/op")
	})
}

func BenchmarkTableMultScanParallelism(b *testing.B) {
	g := rmatGraph(8)
	splits := []string{
		VertexName(g.N / 4), VertexName(g.N / 2), VertexName(3 * g.N / 4),
	}
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := mustOpen(ClusterConfig{TabletServers: 4, ScanParallelism: par})
				tg, err := db.CreateGraph("B")
				if err != nil {
					b.Fatal(err)
				}
				if err := tg.Ingest(g); err != nil {
					b.Fatal(err)
				}
				a, at, _ := tg.Tables()
				ops := db.Connector().TableOperations()
				for _, tbl := range []string{a, at} {
					if err := ops.AddSplits(tbl, splits); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := db.TableMult(at, a, "Sq", "plus.times"); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// --- Read-path performance subsystem (PR 3) ---
//
// BenchmarkRepeatedScanBlockCache pins the block cache's value on the
// dominant kernel access pattern: repeated whole-table scans over
// rfile-backed runs. With the cache off every iteration re-reads,
// re-CRCs, and re-decodes each block from disk; with it on, iterations
// after the first serve decoded blocks from memory. The reported
// hits/op and misses/op make the cache's work visible in CI artifacts.

func benchRepeatedScan(b *testing.B, cfg ClusterConfig, n int) {
	entries := benchClusterEntries(n)
	cfg.DataDir = b.TempDir()
	db := mustOpen(cfg)
	defer db.Close()
	ops := db.Connector().TableOperations()
	if err := ops.Create("T"); err != nil {
		b.Fatal(err)
	}
	w, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if err := w.PutFloat(e.row, "", e.colq, 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	// Flush so scans read rfile-backed runs, then warm once so a
	// cache-enabled run measures the steady (hit-path) state.
	if err := ops.Flush("T"); err != nil {
		b.Fatal(err)
	}
	scanOnce := func() {
		sc, err := db.Connector().CreateScanner("T")
		if err != nil {
			b.Fatal(err)
		}
		got, err := sc.Entries()
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != n {
			b.Fatalf("scan = %d entries, want %d", len(got), n)
		}
	}
	scanOnce()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanOnce()
	}
	b.StopTimer()
	st := db.ScanMetrics()
	b.ReportMetric(float64(st.CacheHits)/float64(b.N), "cache-hits/op")
	b.ReportMetric(float64(st.CacheMisses)/float64(b.N), "cache-misses/op")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
}

func BenchmarkRepeatedScanBlockCache(b *testing.B) {
	const n = 1 << 14
	b.Run("off", func(b *testing.B) {
		benchRepeatedScan(b, ClusterConfig{TabletServers: 2, NoSync: true, BlockCacheBytes: -1}, n)
	})
	b.Run("on", func(b *testing.B) {
		benchRepeatedScan(b, ClusterConfig{TabletServers: 2, NoSync: true}, n)
	})
}

// BenchmarkBloomPointLookups pins the bloom filter's value on point
// reads spread over several rfile runs: each exact-row scan merges all
// runs, and the filters let runs that cannot hold the row skip their
// block loads entirely.
func BenchmarkBloomPointLookups(b *testing.B) {
	run := func(b *testing.B, bloomBits int) {
		cfg := ClusterConfig{TabletServers: 1, NoSync: true, DataDir: b.TempDir(), BloomFilterBits: bloomBits}
		db := mustOpen(cfg)
		defer db.Close()
		ops := db.Connector().TableOperations()
		if err := ops.Create("T"); err != nil {
			b.Fatal(err)
		}
		// Eight disjoint flushed runs: a point lookup touches all of
		// them but only one can contain the row.
		const runs, per = 8, 512
		for r := 0; r < runs; r++ {
			w, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < per; i++ {
				if err := w.PutFloat(fmt.Sprintf("r%d-%05d", r, i), "", "x", 1); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if err := ops.Flush("T"); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc, err := db.Connector().CreateScanner("T")
			if err != nil {
				b.Fatal(err)
			}
			row := fmt.Sprintf("r%d-%05d", i%runs, i%per)
			sc.SetRange(skv.ExactRow(row))
			got, err := sc.Entries()
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != 1 {
				b.Fatalf("point lookup %s = %d entries", row, len(got))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(db.ScanMetrics().BloomNegatives)/float64(b.N), "bloom-negatives/op")
	}
	b.Run("bloom-off", func(b *testing.B) { run(b, -1) })
	b.Run("bloom-on", func(b *testing.B) { run(b, 0) })
}

// --- SpRef push-down + RemoteWrite pre-aggregation (PR 5) ---
//
// BenchmarkSubMatrixTableMult pins the value of range push-down: a
// multiply constrained to a narrow row band of a 16-split table must
// execute its kernel stack only on the overlapping tablets (reported as
// tablet-passes/op and tablets-pruned/op) instead of paying for the
// whole graph the way the full-scan path does.

// benchBandedMultSetup builds a 16-split graph cluster for the banded
// multiply.
func benchBandedMultSetup(b *testing.B, scale int) (db *DB, a, at string) {
	b.Helper()
	g := rmatGraph(scale)
	db = mustOpen(ClusterConfig{TabletServers: 4})
	tg, err := db.CreateGraph("B")
	if err != nil {
		b.Fatal(err)
	}
	if err := tg.Ingest(g); err != nil {
		b.Fatal(err)
	}
	var splits []string
	for i := 1; i < 16; i++ {
		splits = append(splits, VertexName(i*g.N/16))
	}
	a, at, _ = tg.Tables()
	ops := db.Connector().TableOperations()
	for _, tbl := range []string{a, at} {
		if err := ops.AddSplits(tbl, splits); err != nil {
			b.Fatal(err)
		}
	}
	return db, a, at
}

// reportQueryMetrics turns the per-query telemetry of the b.N newest
// TableMult queries into benchmark metrics: the fold and prune ratios
// the paper's ablations argue about, plus scan-pass tail latency. The
// ratios are dimensionless in [0,1]; the latencies are worst observed
// per-query quantiles in nanoseconds so benchjson keeps them numeric.
func reportQueryMetrics(b *testing.B, db *DB) {
	b.Helper()
	var scans, pruned, folded, written int64
	var p50, p99 time.Duration
	n := 0
	for _, q := range db.QueryStats() {
		if q.Kernel != "TableMult" || n == b.N {
			break
		}
		n++
		scans += q.Counters["tablet_scans"]
		pruned += q.Counters["tablets_pruned_by_range"]
		folded += q.Counters["partial_products_folded"]
		written += q.Counters["entries_written"]
		if q.ScanPassP50 > p50 {
			p50 = q.ScanPassP50
		}
		if q.ScanPassP99 > p99 {
			p99 = q.ScanPassP99
		}
	}
	if n == 0 {
		return
	}
	if total := scans + pruned; total > 0 {
		b.ReportMetric(float64(pruned)/float64(total), "prune-ratio")
	}
	if total := folded + written; total > 0 {
		b.ReportMetric(float64(folded)/float64(total), "fold-ratio")
	}
	b.ReportMetric(float64(p50.Nanoseconds()), "scanpass-p50-ns")
	b.ReportMetric(float64(p99.Nanoseconds()), "scanpass-p99-ns")
}

func BenchmarkSubMatrixTableMult(b *testing.B) {
	const scale = 9
	run := func(b *testing.B, constraint ScanConstraint) {
		db, a, at := benchBandedMultSetup(b, scale)
		defer db.Close()
		st0 := db.ScanMetrics()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.TableMultOpts(at, a, fmt.Sprintf("Sq%d", i),
				MultOptions{Constraint: constraint}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		st := db.ScanMetrics()
		b.ReportMetric(float64(st.TabletScans-st0.TabletScans)/float64(b.N), "tablet-passes/op")
		b.ReportMetric(float64(st.TabletsPrunedByRange-st0.TabletsPrunedByRange)/float64(b.N), "tablets-pruned/op")
		reportQueryMetrics(b, db)
	}
	b.Run("fullscan", func(b *testing.B) { run(b, ScanConstraint{}) })
	b.Run("rowband", func(b *testing.B) {
		// The middle 2/16 of the vertex space: exactly 2 of the 16
		// tablets overlap.
		n := rmatGraph(scale).N
		run(b, ScanConstraint{RowStart: VertexName(7 * n / 16), RowEnd: VertexName(9 * n / 16)})
	})
}

// BenchmarkPreAggWriteVolume pins the pre-aggregation claim on a
// power-law multiply: with the ⊕ fold buffer on, far fewer entries
// cross the RemoteWrite path (entries-written/op), the folds appearing
// in folded/op instead. Results are cell-identical either way (pinned
// by TestPreAggIdenticalResultsAcrossSemirings and the three-way
// equivalence test); only the write volume changes.
func BenchmarkPreAggWriteVolume(b *testing.B) {
	const scale = 9
	run := func(b *testing.B, preAgg int) {
		g := rmatGraph(scale)
		db := mustOpen(ClusterConfig{TabletServers: 4})
		defer db.Close()
		tg, err := db.CreateGraph("B")
		if err != nil {
			b.Fatal(err)
		}
		if err := tg.Ingest(g); err != nil {
			b.Fatal(err)
		}
		a, at, _ := tg.Tables()
		st0 := db.ScanMetrics()
		written := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := db.TableMultOpts(at, a, fmt.Sprintf("Sq%d", i), MultOptions{PreAggBytes: preAgg})
			if err != nil {
				b.Fatal(err)
			}
			written += n
		}
		b.StopTimer()
		st := db.ScanMetrics()
		b.ReportMetric(float64(written)/float64(b.N), "entries-written/op")
		b.ReportMetric(float64(st.PartialProductsFolded-st0.PartialProductsFolded)/float64(b.N), "folded/op")
		reportQueryMetrics(b, db)
	}
	b.Run("off", func(b *testing.B) { run(b, -1) })
	b.Run("on", func(b *testing.B) { run(b, 0) })
}

// --- Concurrent write path (PR 7) ---
//
// BenchmarkConcurrentTabletIngest pins the tentpole claim: N writers
// ingesting the same fixed workload into ONE tablet scale, because the
// memtable takes lock-free concurrent inserts, full memtables flush in
// the background instead of inline, and the WAL's group commit shares
// one buffer copy and one fsync across concurrent batches.
// BenchmarkScanDuringIngest pins the read side: scans merge the live
// memtable under a sequence watermark instead of copying it, so scan
// throughput holds up while writers hammer the same tablet.

// benchConcurrentIngest writes `total` entries into a single-tablet
// durable table split evenly across `writers` concurrent BatchWriters.
func benchConcurrentIngest(b *testing.B, writers, total int) {
	per := total / writers
	var freezes, stallNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := mustOpen(ClusterConfig{TabletServers: 1, MemLimit: 1024, DataDir: b.TempDir()})
		if err := db.Connector().TableOperations().Create("T"); err != nil {
			b.Fatal(err)
		}
		ws := make([]*accumulo.BatchWriter, writers)
		for w := range ws {
			// Small client batches keep ingest commit-latency bound —
			// the regime WAL group commit exists for: concurrent
			// batches share one buffer copy and one fsync.
			bw, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{MaxBufferEntries: 4})
			if err != nil {
				b.Fatal(err)
			}
			ws[w] = bw
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if err := ws[w].PutFloat(fmt.Sprintf("w%02d-r%07d", w, i), "", "q", 1); err != nil {
						b.Error(err)
						return
					}
				}
				if err := ws[w].Close(); err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
		b.StopTimer()
		st := db.ScanMetrics()
		freezes += st.MemtableFreezes
		stallNs += st.WriteStallNanos
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(per*writers)*float64(b.N)/b.Elapsed().Seconds(), "entries/sec")
	b.ReportMetric(float64(freezes)/float64(b.N), "freezes/op")
	b.ReportMetric(float64(stallNs)/float64(b.N), "stall-ns/op")
}

func BenchmarkConcurrentTabletIngest(b *testing.B) {
	const total = 4096
	for _, w := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers-%d", w), func(b *testing.B) {
			benchConcurrentIngest(b, w, total)
		})
	}
}

// BenchmarkScanDuringIngest times full-table scans of a pre-flushed
// table while 4 background writers continuously ingest into the same
// single tablet — freezes, background flushes, and watermarked memtable
// reads all active during every timed scan.
func BenchmarkScanDuringIngest(b *testing.B) {
	const n = 1 << 13
	db := mustOpen(ClusterConfig{TabletServers: 1, MemLimit: 2048, NoSync: true, DataDir: b.TempDir()})
	defer db.Close()
	ops := db.Connector().TableOperations()
	if err := ops.Create("T"); err != nil {
		b.Fatal(err)
	}
	w, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.PutFloat(fmt.Sprintf("base-r%07d", i), "", "q", 1); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := ops.Flush("T"); err != nil {
		b.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	const loadWriters = 4
	for lw := 0; lw < loadWriters; lw++ {
		wg.Add(1)
		go func(lw int) {
			defer wg.Done()
			bw, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{MaxBufferEntries: 64})
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; !stop.Load(); i++ {
				if err := bw.PutFloat(fmt.Sprintf("load-w%d-r%09d", lw, i), "", "q", 1); err != nil {
					b.Error(err)
					return
				}
			}
			if err := bw.Close(); err != nil {
				b.Error(err)
			}
		}(lw)
	}
	b.ResetTimer()
	scanned := 0
	for i := 0; i < b.N; i++ {
		sc, err := db.Connector().CreateScanner("T")
		if err != nil {
			b.Fatal(err)
		}
		got, err := sc.Entries()
		if err != nil {
			b.Fatal(err)
		}
		if len(got) < n {
			b.Fatalf("scan = %d entries, want >= %d", len(got), n)
		}
		scanned += len(got)
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	st := db.ScanMetrics()
	b.ReportMetric(float64(scanned)/b.Elapsed().Seconds(), "entries/sec")
	b.ReportMetric(float64(st.MemtableFreezes)/float64(b.N), "freezes/op")
}

// BenchmarkColQBloomPointLookups pins the v3 (row, colQ) pair bloom:
// single-cell probes for pairs whose ROW exists in every run — so the
// row bloom admits all of them — skip runs on the pair filter alone.
// The workload is an edge-existence check: every run holds the probed
// row, only one can hold the (row, colQ) cell.
func BenchmarkColQBloomPointLookups(b *testing.B) {
	run := func(b *testing.B, colqBits int) {
		cfg := ClusterConfig{TabletServers: 1, NoSync: true, DataDir: b.TempDir(), ColQBloomBits: colqBits}
		db := mustOpen(cfg)
		defer db.Close()
		ops := db.Connector().TableOperations()
		if err := ops.Create("T"); err != nil {
			b.Fatal(err)
		}
		// Eight flushed runs sharing the same row universe: run r holds
		// colQ band c{r}-*, so a cell probe's row is in every run but
		// its (row, colQ) pair lives in exactly one.
		const runs, rows, per = 8, 64, 8
		for r := 0; r < runs; r++ {
			w, err := db.Connector().CreateBatchWriter("T", accumulo.BatchWriterConfig{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < per; j++ {
					if err := w.PutFloat(fmt.Sprintf("r%05d", i), "", fmt.Sprintf("c%d-%04d", r, j), 1); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			if err := ops.Flush("T"); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := fmt.Sprintf("r%05d", i%rows)
			colq := fmt.Sprintf("c%d-%04d", i%runs, i%per)
			v, ok, err := db.LookupCell("T", row, "", colq)
			if err != nil {
				b.Fatal(err)
			}
			if !ok || v != 1 {
				b.Fatalf("cell (%s,%s) = %v ok=%v", row, colq, v, ok)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(db.ScanMetrics().ColQBloomNegatives)/float64(b.N), "colq-negatives/op")
	}
	b.Run("colq-bloom-off", func(b *testing.B) { run(b, -1) })
	b.Run("colq-bloom-on", func(b *testing.B) { run(b, 0) })
}

// --- Fused kernel plans (PR 8) ---
//
// BenchmarkFusedVsMaterialized pins the plan layer's tentpole claim:
// kernels whose multiply result the client consumes anyway (kTruss
// support, Jaccard numerator, TriangleCount A²) stream the ⊗ partial
// products back and ⊕-fold client-side instead of landing them in a
// scratch table and rescanning it. Per kernel, the fused driver must
// show fewer scratch tables, fewer RPCs, and lower latency than the
// materializing baseline on the same graph.
func BenchmarkFusedVsMaterialized(b *testing.B) {
	const scale = 8
	kernels := []struct {
		name string
		run  func(g *TableGraph, fused bool) error
	}{
		{"KTruss", func(g *TableGraph, fused bool) error {
			var err error
			if fused {
				_, err = g.KTruss(4)
			} else {
				_, err = g.KTrussMaterialized(4)
			}
			return err
		}},
		{"Jaccard", func(g *TableGraph, fused bool) error {
			var err error
			if fused {
				_, err = g.Jaccard()
			} else {
				_, err = g.JaccardMaterialized()
			}
			return err
		}},
		{"TriangleCount", func(g *TableGraph, fused bool) error {
			var err error
			if fused {
				_, err = g.TriangleCount()
			} else {
				_, err = g.TriangleCountMaterialized()
			}
			return err
		}},
	}
	for _, k := range kernels {
		for _, mode := range []string{"materialized", "fused"} {
			fused := mode == "fused"
			b.Run(k.name+"/"+mode, func(b *testing.B) {
				g := rmatGraph(scale)
				db := mustOpen(ClusterConfig{TabletServers: 4})
				defer db.Close()
				tg, err := db.CreateGraph("F")
				if err != nil {
					b.Fatal(err)
				}
				if err := tg.Ingest(g); err != nil {
					b.Fatal(err)
				}
				st0 := db.ScanMetrics()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.run(tg, fused); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := db.ScanMetrics()
				b.ReportMetric(float64(st.ScratchTablesCreated-st0.ScratchTablesCreated)/float64(b.N), "scratch-tables/op")
				_, rpcs, _, _ := db.Metrics()
				b.ReportMetric(float64(rpcs)/float64(b.N), "rpcs/op")
			})
		}
	}
}

// --- PR-9: concurrent query scheduler scaling harness ---

// runMixedKernels is one scaling-harness worker: ops kernel calls
// rotating through AdjBFS, Jaccard, and TableMult against the shared
// graph, alternating tenant labels across workers. Returns per-op
// latencies (short on error).
func runMixedKernels(b *testing.B, db *DB, tg *TableGraph, worker, ops int) []time.Duration {
	b.Helper()
	a, at, _ := tg.Tables()
	tenant := fmt.Sprintf("t%d", worker%2)
	lat := make([]time.Duration, 0, ops)
	for i := 0; i < ops; i++ {
		start := time.Now()
		var err error
		switch i % 3 {
		case 0:
			_, err = tg.BFSWithOptions([]int{1}, 2, BFSOptions{Tenant: tenant})
		case 1:
			_, err = tg.Jaccard()
		default:
			out := fmt.Sprintf("BC_w%d_%d", worker, i)
			if _, err = db.TableMultOpts(at, a, out, MultOptions{Semiring: "plus.times", Tenant: tenant}); err == nil {
				err = db.Connector().TableOperations().Delete(out)
			}
		}
		if err != nil {
			b.Error(err)
			return lat
		}
		lat = append(lat, time.Since(start))
	}
	return lat
}

// latQuantile returns the q-quantile (0..1) of the recorded latencies.
func latQuantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	return s[i]
}

// queueWaitTotal sums the scheduler queue wait accumulated across every
// tenant's queries.
func queueWaitTotal(db *DB) int64 {
	var total int64
	for _, ts := range db.Connector().Cluster().Telemetry().TenantSnapshots() {
		total += ts.QueueWaitNanos
	}
	return total
}

// BenchmarkConcurrentKernels is the scheduler's scaling harness: N
// workers run a mixed kernel stream (AdjBFS, Jaccard, TableMult) on
// shared tables under admission control, a pass limit (fair-share and
// shared-scan folding active), and two weighted tenants, on the
// in-process and TCP transports. Weak rows fix the per-worker op count
// (aggregate kernels/sec should grow with N); strong rows divide a
// fixed total across N workers (wall clock should shrink). The
// serialized row runs the N=8 weak workload through a single query
// slot — the anchor for the concurrent-vs-serialized qps claim. Each
// row reports aggregate kernels/sec, per-op p50/p99, and mean
// scheduler queue wait.
func BenchmarkConcurrentKernels(b *testing.B) {
	const scale = 7
	const weakOps = 6    // per worker
	const strongOps = 24 // total, split across workers
	for _, transport := range []string{"inproc", "tcp"} {
		for _, mode := range []string{"weak", "strong", "serialized"} {
			workerCounts := []int{1, 2, 4, 8}
			if mode == "serialized" {
				workerCounts = []int{8}
			}
			for _, n := range workerCounts {
				n := n
				cfg := ClusterConfig{
					Transport:            transport,
					TabletServers:        4,
					MaxConcurrentQueries: 4 * n,
					MaxConcurrentPasses:  4,
					TenantWeights:        map[string]int{"t0": 2, "t1": 1},
				}
				ops := weakOps
				if mode == "strong" {
					ops = strongOps / n
				}
				if mode == "serialized" {
					// Same offered load, one query slot: every kernel queues.
					cfg.MaxConcurrentQueries = 1
					cfg.MaxQueuedQueries = 1024
				}
				b.Run(fmt.Sprintf("%s/%s/N=%d", transport, mode, n), func(b *testing.B) {
					g := rmatGraph(scale)
					db := mustOpen(cfg)
					defer db.Close()
					tg, err := db.CreateGraph("G")
					if err != nil {
						b.Fatal(err)
					}
					if err := tg.Ingest(g); err != nil {
						b.Fatal(err)
					}
					qw0 := queueWaitTotal(db)
					var all []time.Duration
					var wall time.Duration
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						lats := make([][]time.Duration, n)
						start := time.Now()
						var wg sync.WaitGroup
						for w := 0; w < n; w++ {
							wg.Add(1)
							go func(w int) {
								defer wg.Done()
								lats[w] = runMixedKernels(b, db, tg, w, ops)
							}(w)
						}
						wg.Wait()
						wall += time.Since(start)
						for _, l := range lats {
							all = append(all, l...)
						}
					}
					b.StopTimer()
					if len(all) == 0 {
						return
					}
					b.ReportMetric(float64(len(all))/wall.Seconds(), "kernels/sec")
					b.ReportMetric(float64(latQuantile(all, 0.50))/1e6, "p50-ms")
					b.ReportMetric(float64(latQuantile(all, 0.99))/1e6, "p99-ms")
					b.ReportMetric(float64(queueWaitTotal(db)-qw0)/float64(len(all))/1e6, "queue-wait-ms/op")
				})
			}
		}
	}
}
