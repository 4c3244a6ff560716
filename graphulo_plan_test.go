package graphulo

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// planTestGraph is a fixed graph with a non-trivial k-truss: barbell
// graphs peel their bridge path, so the fused and materializing kTruss
// drivers both iterate at least twice.
func planTestGraph() Graph { return DedupGraph(Barbell(4, 1)) }

// TestFusedDriversMatchMaterialized asserts the fused plan drivers are
// byte-identical to the pre-plan materializing drivers on every
// transport: same entries, same values, same triangle count. This is
// the plan layer's core equivalence claim — fusion changes where the
// ⊕-fold happens, never what it produces.
func TestFusedDriversMatchMaterialized(t *testing.T) {
	configs := map[string]ClusterConfig{
		"inproc": {Transport: "inproc"},
		"tcp":    {Transport: "tcp"},
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	configs["external"] = ClusterConfig{Servers: addrs}

	graph := planTestGraph()
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			g, err := db.CreateGraph("Eq")
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Ingest(graph); err != nil {
				t.Fatal(err)
			}

			trussF, err := g.KTruss(4)
			if err != nil {
				t.Fatal(err)
			}
			trussM, err := g.KTrussMaterialized(4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(trussF.Entries(), trussM.Entries()) {
				t.Fatalf("fused kTruss differs from materialized:\nfused: %v\nmat:   %v",
					trussF.Entries(), trussM.Entries())
			}
			if trussF.NNZ() != 24 {
				t.Fatalf("kTruss nnz = %d, want 24 (two K4s)", trussF.NNZ())
			}

			jacF, err := g.Jaccard()
			if err != nil {
				t.Fatal(err)
			}
			jacM, err := g.JaccardMaterialized()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(jacF.Entries(), jacM.Entries()) {
				t.Fatalf("fused Jaccard differs from materialized:\nfused: %v\nmat:   %v",
					jacF.Entries(), jacM.Entries())
			}

			triF, err := g.TriangleCount()
			if err != nil {
				t.Fatal(err)
			}
			triM, err := g.TriangleCountMaterialized()
			if err != nil {
				t.Fatal(err)
			}
			if triF != triM {
				t.Fatalf("fused triangles = %v, materialized = %v", triF, triM)
			}
			if want := TriangleCount(AdjacencyPat(graph)); triF != want {
				t.Fatalf("triangles = %v, in-memory = %v", triF, want)
			}
		})
	}
}

// TestScratchTableCountsPinned pins how many intermediate tables each
// kernel materialises, via the ScratchTablesCreated metric. The fused
// drivers must beat the materializing ones by at least one scratch
// table per multiply (the point of the plan layer), and the exact
// counts are pinned so a planner regression that silently reintroduces
// a round-trip fails loudly.
func TestScratchTableCountsPinned(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	defer db.Close()
	g, err := db.CreateGraph("Pin")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(planTestGraph()); err != nil {
		t.Fatal(err)
	}

	// perQuery sums the per-query twin over the retained queries, all of
	// this test's kernels.
	perQuery := func() (n int64) {
		for _, q := range db.QueryStats() {
			n += q.Counters["scratch_tables_created"]
		}
		return n
	}
	scratchDelta := func(run func() error) int64 {
		before, beforeQ := db.ScanMetrics().ScratchTablesCreated, perQuery()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		delta := db.ScanMetrics().ScratchTablesCreated - before
		if q := perQuery() - beforeQ; q != delta {
			t.Errorf("per-query scratch tables %d != global delta %d", q, delta)
		}
		return delta
	}

	// Fused Jaccard and TriangleCount stream A² partial products to the
	// client and ⊕-fold there: zero scratch tables. The materializing
	// versions land A² (or the numerator) in one.
	if got := scratchDelta(func() error { _, err := g.Jaccard(); return err }); got != 0 {
		t.Errorf("fused Jaccard created %d scratch tables, want 0", got)
	}
	if got := scratchDelta(func() error { _, err := g.JaccardMaterialized(); return err }); got != 1 {
		t.Errorf("materialized Jaccard created %d scratch tables, want 1", got)
	}
	if got := scratchDelta(func() error { _, err := g.TriangleCount(); return err }); got != 0 {
		t.Errorf("fused TriangleCount created %d scratch tables, want 0", got)
	}
	if got := scratchDelta(func() error { _, err := g.TriangleCountMaterialized(); return err }); got != 1 {
		t.Errorf("materialized TriangleCount created %d scratch tables, want 1", got)
	}

	// kTruss on barbell(4,1) with k=4 takes two peel rounds (one that
	// drops the bridge, one that confirms the fixed point). The fused
	// driver only materialises the surviving adjacency between rounds
	// (rounds−1 = 1 table); the materializing driver also lands each
	// round's support matrix A² (2·rounds−1 = 3 tables).
	fused := scratchDelta(func() error { _, err := g.KTruss(4); return err })
	mat := scratchDelta(func() error { _, err := g.KTrussMaterialized(4); return err })
	if fused != 1 {
		t.Errorf("fused kTruss created %d scratch tables, want 1", fused)
	}
	if mat != 3 {
		t.Errorf("materialized kTruss created %d scratch tables, want 3", mat)
	}
	if fused >= mat {
		t.Errorf("fused kTruss (%d scratch tables) must beat materialized (%d)", fused, mat)
	}
}

// TestConcurrentKTrussNoScratchCollision runs two kTruss computations
// over the same graph concurrently. Before scratch names carried the
// query trace id, both runs wrote the same `_sq`/`_it` intermediates
// and corrupted each other; now each trace owns its names.
func TestConcurrentKTrussNoScratchCollision(t *testing.T) {
	db := mustOpen(ClusterConfig{TabletServers: 2})
	defer db.Close()
	g, err := db.CreateGraph("Conc")
	if err != nil {
		t.Fatal(err)
	}
	graph := planTestGraph()
	if err := g.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	want, err := g.KTruss(4)
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent fused and materializing runs share the scratch base
	// g.name+"KTs" but must not interfere. They write distinct output
	// tables (KT4 vs the materialized run rewriting KT4 would race), so
	// run the materialized variant against a second handle of the same
	// underlying adjacency via the core drivers' different out tables:
	// here it is enough that both kTruss code paths run at once.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	results := make(chan *Assoc, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := g.KTruss(4)
			if err != nil {
				errs <- err
				return
			}
			results <- a
		}()
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	for a := range results {
		if !reflect.DeepEqual(a.Entries(), want.Entries()) {
			t.Fatalf("concurrent kTruss diverged:\ngot:  %v\nwant: %v", a.Entries(), want.Entries())
		}
	}
}

// TestConcurrentDegrees is the Degrees twin of the kTruss collision
// test: Degrees reduces into a summing output table, so concurrent calls
// sharing one output name would add into each other's degrees. Each call
// owns a private table and drops it after reading.
func TestConcurrentDegrees(t *testing.T) {
	db := mustOpen(ClusterConfig{TabletServers: 2})
	defer db.Close()
	g, err := db.CreateGraph("ConcDeg")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Ingest(planTestGraph()); err != nil {
		t.Fatal(err)
	}
	before := db.conn.TableOperations().List()
	want, err := g.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	results := make(chan map[string]float64, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := g.Degrees()
			if err != nil {
				errs <- err
				return
			}
			results <- d
		}()
	}
	wg.Wait()
	close(errs)
	close(results)
	for err := range errs {
		t.Fatal(err)
	}
	for d := range results {
		if !reflect.DeepEqual(d, want) {
			t.Fatalf("concurrent Degrees diverged:\ngot:  %v\nwant: %v", d, want)
		}
	}
	if after := db.conn.TableOperations().List(); !reflect.DeepEqual(after, before) {
		t.Fatalf("Degrees leaked output tables: before %v, after %v", before, after)
	}
}

// TestTableAssign checks the SpAsgn kernel: entries land in the
// destination sub-array with row/col offsets prefixed, server-side,
// honouring the scan constraint.
func TestTableAssign(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	defer db.Close()
	src := NewAssoc([]AssocEntry{
		{Row: "a", Col: "x", Val: 1},
		{Row: "b", Col: "y", Val: 2},
		{Row: "c", Col: "z", Val: 3},
	}, PlusTimes)
	if err := db.WriteAssoc("In", src); err != nil {
		t.Fatal(err)
	}

	n, err := db.TableAssign("In", "Out", "p|", "q|", ScanConstraint{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("TableAssign wrote %d entries, want 3", n)
	}
	out, err := db.ReadAssoc("Out")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range src.Entries() {
		got := out.At("p|"+e.Row, "q|"+e.Col)
		if math.Abs(got-e.Val) > 1e-12 {
			t.Fatalf("Out[p|%s, q|%s] = %v, want %v", e.Row, e.Col, got, e.Val)
		}
	}

	// A row constraint prunes before the remap sees the stream: only
	// rows in the half-open band [a, c) cross.
	n, err = db.TableAssign("In", "Band", "p|", "", ScanConstraint{RowStart: "a", RowEnd: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("constrained TableAssign wrote %d entries, want 2", n)
	}
	band, err := db.ReadAssoc("Band")
	if err != nil {
		t.Fatal(err)
	}
	if band.At("p|c", "z") != 0 {
		t.Fatal("row constraint leaked row c through TableAssign")
	}
}

// TestExplainPlanSurface checks the explain surface: every kernel
// compiles, kTruss reports a fused group, and TableMult shows the fixed
// pre-aggregation cap.
func TestExplainPlanSurface(t *testing.T) {
	db := mustOpen(ClusterConfig{})
	defer db.Close()
	for _, k := range ExplainKernels() {
		out, err := db.ExplainPlan(k, "A", "C")
		if err != nil {
			t.Fatalf("ExplainPlan(%q): %v", k, err)
		}
		if !strings.Contains(out, "plan ") {
			t.Fatalf("ExplainPlan(%q) output missing plan header:\n%s", k, out)
		}
	}
	kt, err := db.ExplainPlan("ktruss", "A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(kt, "fused group") {
		t.Fatalf("kTruss explain must show a fused group:\n%s", kt)
	}
	if !strings.Contains(kt, "no scratch table") {
		t.Fatalf("kTruss explain must note the scratch-free collect:\n%s", kt)
	}
	mult, err := ExplainPlan("mult", "A", "C")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mult, "pre-agg 16777216 B") {
		t.Fatalf("mult explain must show the 16 MiB pre-agg cap:\n%s", mult)
	}
}

// TestServerTableMultWriteVolume pins server TableMult's write volume
// with work counters instead of timing, on the RMAT scale-8 graph with
// A and Aᵀ split into four tablets across four tablet servers. The
// RemoteWrite fold's cap is fixed, so the entries one call writes
// depend only on the operands: consecutive calls on one cluster and a
// first call on a fresh cluster write exactly as many entries. And the
// server-side fold writes at most half of what the thin client writes
// for the same product — the paper's server-beats-client claim as a
// deterministic assertion.
func TestServerTableMultWriteVolume(t *testing.T) {
	g := rmatGraph(8)
	open := func() (db *DB, a, at string) {
		db = mustOpen(ClusterConfig{TabletServers: 4})
		tg, err := db.CreateGraph("W")
		if err != nil {
			t.Fatal(err)
		}
		if err := tg.Ingest(g); err != nil {
			t.Fatal(err)
		}
		a, at, _ = tg.Tables()
		var splits []string
		for i := 1; i < 4; i++ {
			splits = append(splits, VertexName(i*g.N/4))
		}
		for _, tbl := range []string{a, at} {
			if err := db.Connector().TableOperations().AddSplits(tbl, splits); err != nil {
				t.Fatal(err)
			}
		}
		return db, a, at
	}
	written := func(db *DB, mult func() error) int64 {
		_, _, before, _ := db.Metrics()
		if err := mult(); err != nil {
			t.Fatal(err)
		}
		_, _, after, _ := db.Metrics()
		return after - before
	}
	server := func(db *DB, a, at, out string) int64 {
		return written(db, func() error { _, err := db.TableMult(at, a, out, "plus.times"); return err })
	}

	db, a, at := open()
	defer db.Close()
	first := server(db, a, at, "C1")
	second := server(db, a, at, "C2")
	if first == 0 || first != second {
		t.Fatalf("consecutive server TableMult calls wrote %d then %d entries, want equal and non-zero", first, second)
	}
	client := written(db, func() error { _, err := db.TableMultClient(at, a, "Cc", "plus.times"); return err })
	if 2*first > client {
		t.Fatalf("server TableMult wrote %d entries, client %d: want server ≤ ½ client", first, client)
	}

	fresh, fa, fat := open()
	defer fresh.Close()
	if got := server(fresh, fa, fat, "C1"); got != first {
		t.Fatalf("first call on a fresh cluster wrote %d entries, want %d as on the warm cluster", got, first)
	}
	t.Logf("server writes %d entries per call, client %d", first, client)
}
