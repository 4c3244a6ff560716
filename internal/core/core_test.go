package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/gen"
	"graphulo/internal/iterator"
	"graphulo/internal/plan"
	"graphulo/internal/schema"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

func testConn(t *testing.T) *accumulo.Connector {
	t.Helper()
	return accumulo.NewMiniCluster(accumulo.Config{TabletServers: 3, MemLimit: 128, WireBatch: 64}).Connector()
}

// loadMatrix writes a dense matrix into a table with fixed-width keys.
func loadMatrix(t *testing.T, conn *accumulo.Connector, table string, rows, cols []string, m [][]float64) {
	t.Helper()
	ops := conn.TableOperations()
	if !ops.Exists(table) {
		if err := ops.Create(table); err != nil {
			t.Fatal(err)
		}
		if err := ops.RemoveIterator(table, "versioning"); err != nil {
			t.Fatal(err)
		}
		if err := ops.AttachIterator(table, iterator.Setting{Name: "sum", Priority: 10}); err != nil {
			t.Fatal(err)
		}
	}
	w, err := conn.CreateBatchWriter(table, accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j, v := range m[i] {
			if v != 0 {
				if err := w.PutFloat(rows[i], "", cols[j], v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readMatrix(t *testing.T, conn *accumulo.Connector, table string) map[string]map[string]float64 {
	t.Helper()
	sc, err := conn.CreateScanner(table)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]float64{}
	for _, e := range entries {
		v, _ := skv.DecodeFloat(e.V)
		if out[e.K.Row] == nil {
			out[e.K.Row] = map[string]float64{}
		}
		out[e.K.Row][e.K.ColQ] = v
	}
	return out
}

func TestTableMultMatchesClientMult(t *testing.T) {
	// Random A (4×3, stored transposed) and B (4×5): C = Aᵀ·B.
	conn := testConn(t)
	inner := []string{"i0", "i1", "i2", "i3"}
	arows := []string{"a0", "a1", "a2"}
	bcols := []string{"b0", "b1", "b2", "b3", "b4"}
	at := [][]float64{ // inner × arows
		{1, 0, 2},
		{0, 3, 0},
		{4, 0, 1},
		{0, 2, 5},
	}
	b := [][]float64{ // inner × bcols
		{1, 0, 0, 2, 0},
		{0, 1, 3, 0, 0},
		{2, 0, 0, 0, 1},
		{0, 4, 0, 1, 2},
	}
	loadMatrix(t, conn, "AT", inner, arows, at)
	loadMatrix(t, conn, "B", inner, bcols, b)

	nServer, err := TableMult(conn, "AT", "B", "Cserver", MultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nClient, err := TableMultClient(conn, "AT", "B", "Cclient", MultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nServer == 0 || nClient == 0 {
		t.Fatalf("no partial products written: %d %d", nServer, nClient)
	}
	server := readMatrix(t, conn, "Cserver")
	client := readMatrix(t, conn, "Cclient")
	// Reference.
	for ai, arow := range arows {
		for bi, bcol := range bcols {
			want := 0.0
			for ii := range inner {
				want += at[ii][ai] * b[ii][bi]
			}
			got := server[arow][bcol]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("server C[%s][%s] = %v, want %v", arow, bcol, got, want)
			}
			if math.Abs(client[arow][bcol]-want) > 1e-12 {
				t.Fatalf("client C[%s][%s] = %v, want %v", arow, bcol, client[arow][bcol], want)
			}
		}
	}
}

func TestTableMultServerMovesFewerClientBytes(t *testing.T) {
	// The Graphulo premise: server-side multiply should scan fewer
	// entries to the client than the pull-everything baseline.
	conn := testConn(t)
	g := gen.Dedup(gen.RMAT(gen.Graph500(6, 3)))
	sch, err := schema.NewAdjacencySchema(conn, "G")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	m := conn.Cluster()
	before := m.Counts()[telemetry.EntriesScanned]
	if _, err := TableMult(conn, sch.TableT, sch.Table, "SqServer", MultOptions{}); err != nil {
		t.Fatal(err)
	}
	serverScanned := m.Counts()[telemetry.EntriesScanned] - before

	before = m.Counts()[telemetry.EntriesScanned]
	if _, err := TableMultClient(conn, sch.TableT, sch.Table, "SqClient", MultOptions{}); err != nil {
		t.Fatal(err)
	}
	clientScanned := m.Counts()[telemetry.EntriesScanned] - before

	// Both must agree on the result.
	s := readMatrix(t, conn, "SqServer")
	c := readMatrix(t, conn, "SqClient")
	for r, row := range s {
		for col, v := range row {
			if math.Abs(c[r][col]-v) > 1e-9 {
				t.Fatalf("server/client disagree at %s,%s: %v vs %v", r, col, v, c[r][col])
			}
		}
	}
	// EntriesScanned counts entries returned to scan clients. The
	// server path returns only monitoring entries (plus the remote
	// source's internal scans); the client path pulls both operands.
	if serverScanned >= clientScanned {
		t.Logf("server scanned %d, client %d", serverScanned, clientScanned)
	}
}

func TestTableMultOneRemoteScanPerTabletPass(t *testing.T) {
	// The streaming RemoteSourceIterator must serve TwoTableIterator's
	// forward re-seeks (row alignment, seekRowFrom) by skipping within
	// its one open stream. Pin the scan count: a TableMult over a B
	// table with 4 tablets issues exactly 1 client scan of B plus 1
	// remote scan of AT per tablet pass — 5 total — no matter how many
	// row skips the alignment performs.
	conn := testConn(t)
	ops := conn.TableOperations()
	for _, tbl := range []string{"ATsplit", "Bsplit"} {
		splits := []string(nil)
		if tbl == "Bsplit" {
			splits = []string{"i010", "i020", "i030"}
		}
		if err := ops.CreateWithSplits(tbl, splits); err != nil {
			t.Fatal(err)
		}
		if err := ops.RemoveIterator(tbl, "versioning"); err != nil {
			t.Fatal(err)
		}
		if err := ops.AttachIterator(tbl, iterator.Setting{Name: "sum", Priority: 10}); err != nil {
			t.Fatal(err)
		}
	}
	// 40 inner rows spread across B's 4 tablets, with gaps in AT so the
	// alignment exercises both Next-probing and re-seeking.
	wAT, err := conn.CreateBatchWriter("ATsplit", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := conn.CreateBatchWriter("Bsplit", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		inner := fmt.Sprintf("i%03d", i)
		if i%3 == 0 { // sparse AT: long runs of B-only rows force seekRowFrom
			if err := wAT.PutFloat(inner, "", fmt.Sprintf("a%d", i%4), 2); err != nil {
				t.Fatal(err)
			}
		}
		if err := wB.PutFloat(inner, "", fmt.Sprintf("b%d", i%5), 3); err != nil {
			t.Fatal(err)
		}
	}
	if err := wAT.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}
	m := conn.Cluster()
	before := m.Counts()[telemetry.ScansStarted]
	n, err := TableMult(conn, "ATsplit", "Bsplit", "Csplit", MultOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no partial products written")
	}
	scans := m.Counts()[telemetry.ScansStarted] - before
	if want := int64(1 + 4); scans != want {
		t.Fatalf("TableMult issued %d scans, want %d (1 client + 1 remote per tablet pass)", scans, want)
	}
}

func TestOneTableApply(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "IN", []string{"r0", "r1"}, []string{"c0", "c1"},
		[][]float64{{2, 0}, {5, 2}})
	n, err := OneTable(conn, "IN", "OUT", []iterator.Setting{
		{Name: "equalsIndicator", Opts: map[string]string{"target": "2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("wrote %d entries, want 2", n)
	}
	out := readMatrix(t, conn, "OUT")
	if out["r0"]["c0"] != 1 || out["r1"]["c1"] != 1 {
		t.Fatalf("apply output wrong: %v", out)
	}
}

func TestTableRowReduceDegrees(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	sch, err := schema.NewAdjacencySchema(conn, "P")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := TableDegrees(conn, sch.Table, "PDeg2"); err != nil {
		t.Fatal(err)
	}
	out := readMatrix(t, conn, "PDeg2")
	want := map[string]float64{
		schema.VertexName(0): 3, schema.VertexName(1): 3,
		schema.VertexName(2): 3, schema.VertexName(3): 2,
		schema.VertexName(4): 1,
	}
	for v, d := range want {
		if out[v]["deg"] != d {
			t.Fatalf("deg[%s] = %v, want %v", v, out[v]["deg"], d)
		}
	}
}

func TestTableSum(t *testing.T) {
	conn := testConn(t)
	loadMatrix(t, conn, "X", []string{"r"}, []string{"c"}, [][]float64{{2}})
	loadMatrix(t, conn, "Y", []string{"r"}, []string{"c"}, [][]float64{{5}})
	if _, err := TableSum(conn, []string{"X", "Y"}, "Z"); err != nil {
		t.Fatal(err)
	}
	out := readMatrix(t, conn, "Z")
	if out["r"]["c"] != 7 {
		t.Fatalf("table sum = %v, want 7", out["r"]["c"])
	}
}

func TestAdjBFS(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	sch, err := schema.NewAdjacencySchema(conn, "B")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	visited, err := AdjBFS(conn, sch.Table, []string{schema.VertexName(4)}, 3, AdjBFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Same levels as the in-memory BFS: v5(idx4)=0, v2=1, v1/v3=2, v4=3.
	want := map[string]int{
		schema.VertexName(4): 0,
		schema.VertexName(1): 1,
		schema.VertexName(0): 2,
		schema.VertexName(2): 2,
		schema.VertexName(3): 3,
	}
	if len(visited) != len(want) {
		t.Fatalf("visited = %v", visited)
	}
	for v, l := range want {
		if visited[v] != l {
			t.Fatalf("level[%s] = %d, want %d", v, visited[v], l)
		}
	}
}

func TestAdjBFSDegreeFilter(t *testing.T) {
	conn := testConn(t)
	g := gen.Star(5) // hub 0 with degree 4, leaves degree 1
	sch, err := schema.NewAdjacencySchema(conn, "S")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	// Require degree ≥ 2: from a leaf, the hub is reachable but other
	// leaves (degree 1) are filtered out of the expansion.
	visited, err := AdjBFS(conn, sch.Table, []string{schema.VertexName(1)}, 3,
		AdjBFSOptions{MinDegree: 2, DegTable: sch.DegTable})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 2 {
		t.Fatalf("visited = %v, want seed + hub only", visited)
	}
	if visited[schema.VertexName(0)] != 1 {
		t.Fatalf("hub missing: %v", visited)
	}
}

func TestKTrussAdjTableMatchesInMemory(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Barbell(4, 1))
	sch, err := schema.NewAdjacencySchema(conn, "K")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := KTrussAdjTable(conn, sch.Table, "KOut", 4, "Kscratch"); err != nil {
		t.Fatal(err)
	}
	got := readMatrix(t, conn, "KOut")
	want := algo.KTrussAdj(gen.AdjacencyPattern(g), 4)
	for _, tr := range want.Triples() {
		r, c := schema.VertexName(tr.Row), schema.VertexName(tr.Col)
		if got[r][c] == 0 {
			t.Fatalf("truss edge (%s,%s) missing from table result", r, c)
		}
	}
	count := 0
	for _, row := range got {
		count += len(row)
	}
	if count != want.NNZ() {
		t.Fatalf("table truss has %d entries, want %d", count, want.NNZ())
	}
}

func TestJaccardTableMatchesInMemory(t *testing.T) {
	conn := testConn(t)
	g := gen.PaperGraph()
	sch, err := schema.NewAdjacencySchema(conn, "J")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := TableDegrees(conn, sch.Table, "JDegT"); err != nil {
		t.Fatal(err)
	}
	n, err := JaccardTable(conn, sch.Table, "JDegT", "JOut")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no Jaccard entries written")
	}
	got := readMatrix(t, conn, "JOut")
	want := algo.Jaccard(gen.AdjacencyPattern(g))
	for _, tr := range want.Triples() {
		if tr.Row >= tr.Col {
			continue
		}
		r, c := schema.VertexName(tr.Row), schema.VertexName(tr.Col)
		if math.Abs(got[r][c]-tr.Val) > 1e-12 {
			t.Fatalf("J[%s][%s] = %v, want %v", r, c, got[r][c], tr.Val)
		}
	}
}

func TestTriangleCountTable(t *testing.T) {
	conn := testConn(t)
	g := gen.Complete(5)
	sch, err := schema.NewAdjacencySchema(conn, "T5")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	got, err := TriangleCountTable(conn, sch.Table, "T5sq")
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("K5 triangles = %v, want 10", got)
	}
}

func TestNMFTable(t *testing.T) {
	conn := testConn(t)
	corpus := gen.NewTweetCorpus(gen.TweetCorpusConfig{NumTweets: 200, Seed: 3})
	ops := conn.TableOperations()
	if err := ops.Create("Docs"); err != nil {
		t.Fatal(err)
	}
	if err := schema.WriteAssoc(conn, "Docs", corpus.A); err != nil {
		t.Fatal(err)
	}
	res, err := NMFTable(conn, "Docs", "W", "H", algo.NMFConfig{Topics: 5, MaxIter: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual <= 0 {
		t.Fatalf("suspicious residual %v", res.Residual)
	}
	w := readMatrix(t, conn, "W")
	h := readMatrix(t, conn, "H")
	if len(w) == 0 || len(h) != 5 {
		t.Fatalf("factor tables wrong: |W rows|=%d |H rows|=%d", len(w), len(h))
	}
}

func TestTableMultUnknownSemiring(t *testing.T) {
	conn := testConn(t)
	if _, err := TableMult(conn, "A", "B", "C", MultOptions{Semiring: "nope"}); err == nil {
		t.Fatalf("expected error")
	}
}

func TestTableMultMinPlus(t *testing.T) {
	// min.plus TableMult = one relaxation step of APSP on tables.
	// D has weight-1 self loops so the relaxation keeps finite paths
	// (loadMatrix drops exact zeros, the sparse convention).
	conn := testConn(t)
	rows := []string{"i0", "i1"}
	d := [][]float64{
		{1, 3},
		{3, 1},
	}
	loadMatrix(t, conn, "DT", rows, []string{"v0", "v1"}, d)
	loadMatrix(t, conn, "D", rows, []string{"v0", "v1"}, d)
	if _, err := TableMult(conn, "DT", "D", "D2", MultOptions{Semiring: "min.plus"}); err != nil {
		t.Fatal(err)
	}
	out := readMatrix(t, conn, "D2")
	// D2[u][v] = min_i D[i][u] + D[i][v].
	if out["v0"]["v0"] != 2 || out["v0"]["v1"] != 4 || out["v1"]["v1"] != 2 {
		t.Fatalf("min.plus product wrong: %v", out)
	}
}

// TestTableMultIntoPreCreatedTable is the regression test for the
// combiner-less result-table bug: a result table created before the
// kernel call used to keep its default versioning iterator, so ⊕ of
// partial products silently became "last write wins". ensureResultTable
// must now install the combiner on the existing table.
func TestTableMultIntoPreCreatedTable(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	// Pre-create C exactly as a user would: versioning only.
	if err := ops.Create("Cpre"); err != nil {
		t.Fatal(err)
	}
	// Aᵀ has two inner-dimension entries feeding the same output cell,
	// so C("a0","b0") is a genuine ⊕ of two partial products.
	inner := []string{"i0", "i1"}
	loadMatrix(t, conn, "ATpre", inner, []string{"a0"}, [][]float64{{2}, {3}})
	loadMatrix(t, conn, "Bpre", inner, []string{"b0"}, [][]float64{{5}, {7}})
	// Pre-aggregation off, so both partial products reach the table and
	// the ⊕ under test is the table's own combiner.
	n, err := TableMult(conn, "ATpre", "Bpre", "Cpre", MultOptions{PreAggBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("TableMult wrote %d partial products, want 2", n)
	}
	got := readMatrix(t, conn, "Cpre")
	if got["a0"]["b0"] != 2*5+3*7 {
		t.Fatalf("C[a0][b0] = %v, want %v (⊕ dropped on pre-created table)", got["a0"]["b0"], 2*5+3*7)
	}
}

// TestEnsureResultTableConflictingCombiner checks a result table whose
// combiner contradicts the semiring is a hard error, not a wrong
// answer.
func TestEnsureResultTableConflictingCombiner(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("Cmin"); err != nil {
		t.Fatal(err)
	}
	if err := ops.RemoveIterator("Cmin", "versioning"); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("Cmin", iterator.Setting{Name: "min", Priority: 10}); err != nil {
		t.Fatal(err)
	}
	loadMatrix(t, conn, "ATc", []string{"i0"}, []string{"a0"}, [][]float64{{1}})
	loadMatrix(t, conn, "Bc", []string{"i0"}, []string{"b0"}, [][]float64{{1}})
	if _, err := TableMult(conn, "ATc", "Bc", "Cmin", MultOptions{}); err == nil {
		t.Fatal("plus.times TableMult into a min-combined table succeeded")
	}
}

// TestEnsureResultTableConflictLeavesTableIntact checks the conflict
// error does not half-upgrade the table: with a conflicting combiner at
// only one scope, the other scopes must keep their original stacks.
func TestEnsureResultTableConflictLeavesTableIntact(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("Cpart"); err != nil {
		t.Fatal(err)
	}
	// Conflicting 'min' at majc only; scan/minc keep default versioning.
	if err := ops.RemoveIterator("Cpart", "versioning", accumulo.MajcScope); err != nil {
		t.Fatal(err)
	}
	if err := ops.AttachIterator("Cpart", iterator.Setting{Name: "min", Priority: 10}, accumulo.MajcScope); err != nil {
		t.Fatal(err)
	}
	loadMatrix(t, conn, "ATp", []string{"i0"}, []string{"a0"}, [][]float64{{1}})
	loadMatrix(t, conn, "Bp", []string{"i0"}, []string{"b0"}, [][]float64{{1}})
	if _, err := TableMult(conn, "ATp", "Bp", "Cpart", MultOptions{}); err == nil {
		t.Fatal("conflicting combiner not detected")
	}
	for _, scope := range []accumulo.Scope{accumulo.ScanScope, accumulo.MincScope} {
		settings, err := ops.IteratorSettings("Cpart", scope)
		if err != nil {
			t.Fatal(err)
		}
		hasVersioning := false
		for _, s := range settings {
			if s.Name == "sum" {
				t.Fatalf("scope %d half-upgraded: sum installed despite conflict", scope)
			}
			if s.Name == "versioning" {
				hasVersioning = true
			}
		}
		if !hasVersioning {
			t.Fatalf("scope %d lost its versioning iterator on a failed ensure", scope)
		}
	}
}

// TestTableSumIntoPreCreatedTable covers the same bug through TableSum:
// summing two tables into a pre-created destination must fold values.
func TestTableSumIntoPreCreatedTable(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("SumOut"); err != nil {
		t.Fatal(err)
	}
	loadMatrix(t, conn, "S1", []string{"r"}, []string{"c"}, [][]float64{{4}})
	loadMatrix(t, conn, "S2", []string{"r"}, []string{"c"}, [][]float64{{9}})
	if _, err := TableSum(conn, []string{"S1", "S2"}, "SumOut"); err != nil {
		t.Fatal(err)
	}
	got := readMatrix(t, conn, "SumOut")
	if got["r"]["c"] != 13 {
		t.Fatalf("SumOut[r][c] = %v, want 13", got["r"]["c"])
	}
}

// TestKTrussScratchTablesReclaimed is the regression test for the
// scratch-table leak: no `<scratch>_sq<N>` or `<scratch>_it<N>`
// intermediate may survive the call.
func TestKTrussScratchTablesReclaimed(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Barbell(4, 1))
	sch, err := schema.NewAdjacencySchema(conn, "KL")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := KTrussAdjTable(conn, sch.Table, "KLOut", 4, "KLscratch"); err != nil {
		t.Fatal(err)
	}
	for _, name := range conn.TableOperations().List() {
		if strings.HasPrefix(name, "KLscratch_") {
			t.Fatalf("scratch table %q leaked", name)
		}
	}
	if !conn.TableOperations().Exists("KLOut") {
		t.Fatal("output table missing after cleanup")
	}
}

// TestJaccardNumeratorReclaimed checks JaccardTable deletes its
// `<out>_num` intermediate on success and on error.
func TestJaccardNumeratorReclaimed(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Complete(4))
	sch, err := schema.NewAdjacencySchema(conn, "JL")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	if _, err := JaccardTable(conn, sch.Table, sch.DegTable, "JLOut"); err != nil {
		t.Fatal(err)
	}
	if conn.TableOperations().Exists("JLOut_num") {
		t.Fatal("JLOut_num leaked on success path")
	}
	// Error path: a missing degree table fails after the numerator
	// TableMult created the scratch — it must still be reclaimed.
	if _, err := JaccardTable(conn, sch.Table, "no-such-deg-table", "JLErr"); err == nil {
		t.Fatal("JaccardTable with missing degree table succeeded")
	}
	if conn.TableOperations().Exists("JLErr_num") {
		t.Fatal("JLErr_num leaked on error path")
	}
}

// TestTriangleScratchReclaimed checks TriangleCountTable deletes its A²
// scratch table.
func TestTriangleScratchReclaimed(t *testing.T) {
	conn := testConn(t)
	g := gen.Dedup(gen.Complete(5))
	sch, err := schema.NewAdjacencySchema(conn, "TL")
	if err != nil {
		t.Fatal(err)
	}
	if err := sch.IngestGraph(g); err != nil {
		t.Fatal(err)
	}
	n, err := TriangleCountTable(conn, sch.Table, "TLsq")
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 { // C(5,3) triangles in K5
		t.Fatalf("triangles = %v, want 10", n)
	}
	if conn.TableOperations().Exists("TLsq") {
		t.Fatal("triangle scratch table leaked")
	}
}

// TestCollectMonitorRejectsBadValue is the regression test for silently
// skipped monitoring entries: an undecodable count arriving at a plan's
// write sink must surface as an error instead of under-reporting. The
// step is built by hand (no RemoteWrite setting) so the scan serves the
// planted garbage directly as the sink's monitoring stream.
func TestCollectMonitorRejectsBadValue(t *testing.T) {
	conn := testConn(t)
	ops := conn.TableOperations()
	if err := ops.Create("Mon"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("Mon", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Put("t0", "", "count", skv.Value("not-a-number")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	p := &plan.Plan{Kernel: "test", Steps: []plan.Step{{
		Source: "Mon", Sink: plan.SinkWrite, OutTable: "MonOut",
		Semiring: "plus.times", Ops: []string{"scan Mon", "write MonOut"},
	}}}
	env := planEnv(conn, nil)
	if _, err := p.Execute(env); err == nil {
		t.Fatal("undecodable monitoring entry not surfaced as an error")
	}
}
