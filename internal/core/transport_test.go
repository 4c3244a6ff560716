package core

// Kernel↔transport equivalence: every Graphulo kernel must produce
// identical results whether the cluster's data plane crosses goroutine
// boundaries (inproc), real TCP sockets between tablet servers in this
// process, or standalone tablet-server processes (external mode). These
// tests pin that — including the "one remote scan per tablet pass"
// streaming contract — so the transport abstraction cannot drift from
// the execution model the paper's measurements rely on.

import (
	"fmt"
	"reflect"
	"testing"

	"graphulo/internal/accumulo"
	"graphulo/internal/gen"
	"graphulo/internal/iterator"
	"graphulo/internal/schema"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// transportConfigs returns one identically sized cluster config per
// local transport.
func transportConfigs() map[string]accumulo.Config {
	return map[string]accumulo.Config{
		accumulo.TransportInProc: {TabletServers: 3, MemLimit: 128, WireBatch: 64, Transport: accumulo.TransportInProc},
		accumulo.TransportTCP:    {TabletServers: 3, MemLimit: 128, WireBatch: 64, Transport: accumulo.TransportTCP},
	}
}

// equivCluster opens a cluster and tears it down with the test.
func equivCluster(t *testing.T, cfg accumulo.Config) *accumulo.Connector {
	t.Helper()
	mc, err := accumulo.OpenMiniCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	return mc.Connector()
}

// buildMultInputs loads the pre-split TableMult scenario (sparse AT
// against a 4-tablet B) deterministically, so timestamps — and hence
// raw result entries — are reproducible across clusters.
func buildMultInputs(t *testing.T, conn *accumulo.Connector) {
	t.Helper()
	ops := conn.TableOperations()
	for _, tbl := range []string{"ATe", "Be"} {
		splits := []string(nil)
		if tbl == "Be" {
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
	wAT, err := conn.CreateBatchWriter("ATe", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := conn.CreateBatchWriter("Be", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		inner := fmt.Sprintf("i%03d", i)
		if i%3 == 0 {
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
}

// tableEntries scans a table into raw entries (timestamps included).
func tableEntries(t *testing.T, conn *accumulo.Connector, table string) []skv.Entry {
	t.Helper()
	sc, err := conn.CreateScanner(table)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestKernelTransportEquivalence runs TableMult, OneTable, and AdjBFS
// on identically built clusters over every local transport and demands
// identical results. Client-written input tables must match
// byte-for-byte, timestamps included — deterministic write sequences
// stamp deterministically regardless of the wire. Kernel outputs are
// compared as logical cells: RemoteWrite stamping order depends on how
// concurrent tablet passes interleave, which no transport (nor two runs
// of the same one) can pin.
func TestKernelTransportEquivalence(t *testing.T) {
	type result struct {
		inputs    []skv.Entry
		mult      map[string]float64
		multScans int64
		written   int
		apply     map[string]float64
		bfs       map[string]int
	}
	results := map[string]result{}
	for name, cfg := range transportConfigs() {
		conn := equivCluster(t, cfg)
		var res result

		// TableMult over a pre-split B, pinning the streaming contract:
		// 1 client scan of B + 1 remote scan of AT per tablet pass.
		buildMultInputs(t, conn)
		res.inputs = append(tableEntries(t, conn, "ATe"), tableEntries(t, conn, "Be")...)
		m := conn.Cluster()
		before := m.Counts()[telemetry.ScansStarted]
		n, err := TableMult(conn, "ATe", "Be", "Ce", MultOptions{})
		if err != nil {
			t.Fatalf("%s: TableMult: %v", name, err)
		}
		res.written = n
		res.multScans = m.Counts()[telemetry.ScansStarted] - before
		res.mult = cellValues(t, conn, "Ce")

		// OneTable: Apply with an indicator.
		loadMatrix(t, conn, "INe", []string{"r0", "r1"}, []string{"c0", "c1"},
			[][]float64{{2, 0}, {5, 2}})
		if _, err := OneTable(conn, "INe", "OUTe", []iterator.Setting{
			{Name: "equalsIndicator", Opts: map[string]string{"target": "2"}},
		}); err != nil {
			t.Fatalf("%s: OneTable: %v", name, err)
		}
		res.apply = cellValues(t, conn, "OUTe")

		// AdjBFS over the paper graph with degree filtering.
		sch, err := schema.NewAdjacencySchema(conn, "Pe")
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.IngestGraph(gen.PaperGraph()); err != nil {
			t.Fatal(err)
		}
		levels, err := AdjBFS(conn, sch.Table, []string{schema.VertexName(1)}, 2, AdjBFSOptions{
			MinDegree: 1, MaxDegree: 100, DegTable: sch.DegTable,
		})
		if err != nil {
			t.Fatalf("%s: AdjBFS: %v", name, err)
		}
		res.bfs = levels

		results[name] = res
	}

	base := results[accumulo.TransportInProc]
	if base.written == 0 || len(base.mult) == 0 {
		t.Fatal("inproc TableMult produced nothing; scenario is broken")
	}
	if want := int64(1 + 4); base.multScans != want {
		t.Fatalf("inproc TableMult issued %d scans, want %d", base.multScans, want)
	}
	for name, res := range results {
		if name == accumulo.TransportInProc {
			continue
		}
		if !reflect.DeepEqual(res.inputs, base.inputs) {
			t.Errorf("%s: client-written input tables are not byte-identical to inproc", name)
		}
		if res.multScans != base.multScans {
			t.Errorf("%s: TableMult issued %d scans, inproc issued %d — one remote scan per tablet pass must hold on every transport",
				name, res.multScans, base.multScans)
		}
		if res.written != base.written {
			t.Errorf("%s: TableMult wrote %d partial products, inproc wrote %d", name, res.written, base.written)
		}
		if !reflect.DeepEqual(res.mult, base.mult) {
			t.Errorf("%s: TableMult result differs from inproc:\n%v\n%v", name, res.mult, base.mult)
		}
		if !reflect.DeepEqual(res.apply, base.apply) {
			t.Errorf("%s: OneTable result differs from inproc", name)
		}
		if !reflect.DeepEqual(res.bfs, base.bfs) {
			t.Errorf("%s: AdjBFS levels = %v, inproc = %v", name, res.bfs, base.bfs)
		}
	}
}

// --- external (multi-endpoint standalone server) equivalence ---

// cellValues scans a table and returns its logical cells (ts ignored)
// as "row|colF|colQ" → decoded float.
func cellValues(t *testing.T, conn *accumulo.Connector, table string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, e := range tableEntries(t, conn, table) {
		v, _ := skv.DecodeFloat(e.V)
		key := fmt.Sprintf("%s|%s|%s", e.K.Row, e.K.ColF, e.K.ColQ)
		if _, dup := out[key]; dup {
			t.Fatalf("table %s: cell %s returned more than once by a scan", table, key)
		}
		out[key] = v
	}
	return out
}

// startExternalServers launches n standalone tablet servers in-process
// (the same serving core `graphulo serve` runs) and returns a config
// pointing a coordinator at them.
func startExternalServers(t *testing.T, n int) accumulo.Config {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := accumulo.ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return accumulo.Config{Servers: addrs, WireBatch: 64}
}

// TestExternalServersKernelsMatchInProc runs TableMult (via the paper
// graph's squared adjacency), TableDegrees, and AdjBFS against
// standalone tablet servers and demands cell-identical results with the
// in-process cluster. Timestamps are excluded: external servers stamp
// RemoteWrite results from their own clock bands.
func TestExternalServersKernelsMatchInProc(t *testing.T) {
	type result struct {
		sq   map[string]float64
		deg  map[string]float64
		bfs  map[string]int
		mult int
	}
	run := func(t *testing.T, cfg accumulo.Config) result {
		conn := equivCluster(t, cfg)
		var res result
		sch, err := schema.NewAdjacencySchema(conn, "G")
		if err != nil {
			t.Fatal(err)
		}
		if err := sch.IngestGraph(gen.PaperGraph()); err != nil {
			t.Fatal(err)
		}
		res.mult, err = TableMult(conn, sch.TableT, sch.Table, "Gsq", MultOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res.sq = cellValues(t, conn, "Gsq")
		if _, err := TableDegrees(conn, sch.Table, "GdegOut"); err != nil {
			t.Fatal(err)
		}
		res.deg = cellValues(t, conn, "GdegOut")
		res.bfs, err = AdjBFS(conn, sch.Table, []string{schema.VertexName(1)}, 2, AdjBFSOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	inproc := run(t, accumulo.Config{WireBatch: 64})
	external := run(t, startExternalServers(t, 2))

	if inproc.mult == 0 {
		t.Fatal("inproc TableMult wrote nothing; scenario is broken")
	}
	if external.mult != inproc.mult {
		t.Errorf("TableMult wrote %d partial products externally, %d in-process", external.mult, inproc.mult)
	}
	if !reflect.DeepEqual(external.sq, inproc.sq) {
		t.Errorf("A² differs:\nexternal: %v\ninproc:  %v", external.sq, inproc.sq)
	}
	if !reflect.DeepEqual(external.deg, inproc.deg) {
		t.Errorf("degrees differ:\nexternal: %v\ninproc:  %v", external.deg, inproc.deg)
	}
	if !reflect.DeepEqual(external.bfs, inproc.bfs) {
		t.Errorf("BFS levels differ:\nexternal: %v\ninproc:  %v", external.bfs, inproc.bfs)
	}
}
