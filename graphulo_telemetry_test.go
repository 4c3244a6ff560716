package graphulo

// End-to-end telemetry tests: per-query stats must mirror the global
// counters on every transport, external-daemon traces must link their
// per-daemon spans under the coordinator query, and the HTTP endpoint
// must expose the metric families CI scrapes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"graphulo/internal/accumulo"
	"graphulo/internal/telemetry"
)

// buildBandedOperands creates pre-split operand tables AT and B for a
// banded multiply: inner-dimension rows r0..r7 across four tablets, AT
// giving every inner row the same two output rows (so the band's inner
// rows fold partial products per output cell), and B carrying three
// qualifiers per row so a column band prunes entries server-side.
func buildBandedOperands(t *testing.T, db *DB) {
	t.Helper()
	ops := db.Connector().TableOperations()
	splits := []string{"r2", "r4", "r6"}
	for _, name := range []string{"AT", "B"} {
		if err := ops.CreateWithSplits(name, splits); err != nil {
			t.Fatal(err)
		}
	}
	wAT, err := db.Connector().CreateBatchWriter("AT", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wB, err := db.Connector().CreateBatchWriter("B", accumulo.BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		row := fmt.Sprintf("r%d", i)
		for _, out := range []string{"u", "v"} {
			if err := wAT.PutFloat(row, "", out, 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{"ca", "cb", "cz"} {
			if err := wB.PutFloat(row, "", q, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := wAT.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wB.Close(); err != nil {
		t.Fatal(err)
	}
}

// bandedMultBand is the constraint the telemetry tests multiply under:
// inner rows [r2, r4) — two of the eight rows, pruning two of the four
// tablets of each operand — and output columns [ca, cb), pruning the
// cb/cz entries of the scanned B tablets server-side.
var bandedMultBand = ScanConstraint{
	RowStart: "r2", RowEnd: "r4",
	ColQStart: "ca", ColQEnd: "cb",
}

// mirroredCounters lists the registry's mirrored counters: the ones
// whose per-query and global-delta views of one isolated kernel call
// must agree exactly.
func mirroredCounters() []telemetry.Counter {
	var out []telemetry.Counter
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if c.Mirrored() {
			out = append(out, c)
		}
	}
	return out
}

// globalCounterView reads the coordinator's global counters by name.
func globalCounterView(db *DB) map[string]int64 {
	k := db.cluster.Counts()
	out := make(map[string]int64, len(k))
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		out[c.String()] = k[c]
	}
	return out
}

// TestQueryStatsMatchGlobalMetricsThreeWay runs the banded TableMult on
// inproc, tcp, and external-daemon deployments. On each, the kernel's
// per-query counters must equal the global Metrics deltas across the
// call — the per-query stats are a mirror, not an estimate — and the
// work counters (pruning, folds, scans) must agree across deployments:
// satellite regression for daemon-side counters reaching the
// coordinator under -transport tcp -servers.
func TestQueryStatsMatchGlobalMetricsThreeWay(t *testing.T) {
	type work struct {
		Written  int
		Counters map[string]int64
	}
	results := runThreeWay(t, func(t *testing.T, db *DB) work {
		buildBandedOperands(t, db)
		before := globalCounterView(db)
		written, err := db.TableMultOpts("AT", "B", "C", MultOptions{Constraint: bandedMultBand})
		if err != nil {
			t.Fatal(err)
		}
		after := globalCounterView(db)

		stats := db.QueryStats()
		if len(stats) == 0 {
			t.Fatal("no query records after TableMult")
		}
		q := stats[0] // newest first
		if q.Kernel != "TableMult" {
			t.Fatalf("newest query kernel = %q, want TableMult", q.Kernel)
		}
		if !q.Done || q.Err != "" {
			t.Fatalf("query not finished cleanly: done=%v err=%q", q.Done, q.Err)
		}
		if q.TraceID == "" || q.TraceID == "0000000000000000" {
			t.Fatalf("query has no trace id: %q", q.TraceID)
		}
		for _, c := range mirroredCounters() {
			name := c.String()
			delta := after[name] - before[name]
			if got := q.Counters[name]; got != delta {
				t.Errorf("counter %s: per-query %d != global delta %d", name, got, delta)
			}
		}
		if q.ScanPasses == 0 {
			t.Error("query recorded no scan-pass latencies")
		}
		if q.ScanPassP99 <= 0 {
			t.Errorf("scan-pass p99 = %v, want > 0", q.ScanPassP99)
		}
		// Work counters are deployment-invariant; wire counters are not
		// (frame layout differs per transport), so compare only these.
		invariant := map[string]int64{}
		for _, name := range []string{
			"tablet_scans", "tablets_pruned_by_range",
			"entries_pruned_by_range", "partial_products_folded",
			"entries_written", "scans_started",
		} {
			invariant[name] = q.Counters[name]
		}
		return work{Written: written, Counters: invariant}
	})
	base := results["inproc"]
	if base.Counters["tablets_pruned_by_range"] == 0 {
		t.Error("band pruned no tablets — the test band should skip tablets")
	}
	if base.Counters["entries_pruned_by_range"] == 0 {
		t.Error("column band pruned no entries")
	}
	if base.Counters["partial_products_folded"] == 0 {
		t.Error("pre-aggregation folded nothing")
	}
	requireAgreement(t, results)
}

// queriesPayload mirrors the /queries JSON shape.
type queriesPayload struct {
	Host    string `json:"host"`
	Queries []struct {
		Trace  string           `json:"trace"`
		Kernel string           `json:"kernel"`
		Done   bool             `json:"done"`
		Stats  map[string]int64 `json:"stats"`
		Spans  []struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Host   string `json:"host"`
		} `json:"spans"`
	} `json:"queries"`
}

// TestExternalTraceSpanLinkage is the tentpole acceptance test: a
// banded TableMult against standalone daemons over TCP must produce a
// single trace whose span tree contains the coordinator's kernel spans
// AND the per-daemon tablet passes, with every child's parent resolving
// inside the trace — served over the /queries endpoint.
func TestExternalTraceSpanLinkage(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	db, err := Open(ClusterConfig{Servers: addrs, MetricsAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buildBandedOperands(t, db)
	if _, err := db.TableMultOpts("AT", "B", "C", MultOptions{Constraint: bandedMultBand}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + db.MetricsAddr() + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload queriesPayload
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, q := range payload.Queries {
		if q.Kernel == "TableMult" {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("/queries has no TableMult record: %+v", payload)
	}
	q := payload.Queries[idx]
	if !q.Done {
		t.Error("TableMult query not marked done")
	}
	if q.Trace == "" {
		t.Error("TableMult query has no trace id")
	}

	ids := map[uint64]bool{}
	for _, s := range q.Spans {
		ids[s.ID] = true
	}
	hosts := map[string]bool{}
	roots, daemonPasses := 0, 0
	for _, s := range q.Spans {
		hosts[s.Host] = true
		if s.Parent == 0 {
			roots++
			continue
		}
		if !ids[s.Parent] {
			t.Errorf("span %q (id %d) has dangling parent %d", s.Name, s.ID, s.Parent)
		}
		if strings.HasPrefix(s.Name, "pass ") && s.Host != payload.Host {
			daemonPasses++
		}
	}
	if roots != 1 {
		t.Errorf("trace has %d root spans, want exactly 1", roots)
	}
	if daemonPasses == 0 {
		t.Error("no per-daemon tablet-pass spans linked into the coordinator trace")
	}
	if len(hosts) < 2 {
		t.Errorf("trace spans cover hosts %v, want coordinator plus at least one daemon", hosts)
	}
	for _, counter := range []string{"tablet_scans", "entries_written", "partial_products_folded"} {
		if q.Stats[counter] == 0 {
			t.Errorf("per-query counter %s is zero in /queries", counter)
		}
	}

	// The daemons expose their own endpoints too: each serves its pass
	// records under the same trace id.
	daemonAddr, err := func() (string, error) {
		srv, err := ListenAndServeTablets("127.0.0.1:0", 0)
		if err != nil {
			return "", err
		}
		t.Cleanup(func() { srv.Close() })
		return srv.StartTelemetry("127.0.0.1:0")
	}()
	if err != nil {
		t.Fatal(err)
	}
	requireEveryCounterOnce(t, "daemon", scrapeMetrics(t, daemonAddr))
}

// scrapeMetrics fetches a telemetry endpoint's /metrics text.
func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("/metrics on %s unreachable: %v", addr, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// requireEveryCounterOnce asserts a process's /metrics serves every
// registry counter exactly once, as graphulo_<name>_total.
func requireEveryCounterOnce(t *testing.T, who, metrics string) {
	t.Helper()
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		family := "graphulo_" + c.String() + "_total"
		if n := strings.Count(metrics, "\n"+family+" "); n != 1 {
			t.Errorf("%s /metrics has %d %s samples, want 1", who, n, family)
		}
	}
}

// TestMetricsEndpointAndSlowQueryLog scrapes /metrics from a durable
// coordinator after a kernel run, asserting the histogram and counter
// families CI greps for, and checks the slow-query log receives a
// structured line when the threshold is sub-microsecond.
func TestMetricsEndpointAndSlowQueryLog(t *testing.T) {
	var slow bytes.Buffer
	db, err := Open(ClusterConfig{
		DataDir:            t.TempDir(),
		MetricsAddr:        "127.0.0.1:0",
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       &slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	buildBandedOperands(t, db)
	if _, err := db.TableMultOpts("AT", "B", "C", MultOptions{Constraint: bandedMultBand}); err != nil {
		t.Fatal(err)
	}

	text := scrapeMetrics(t, db.MetricsAddr())
	requireEveryCounterOnce(t, "coordinator", text)
	for _, family := range []string{
		"# TYPE graphulo_scan_pass_seconds histogram",
		"graphulo_scan_pass_seconds_bucket{le=\"+Inf\"}",
		"# TYPE graphulo_write_batch_seconds histogram",
		"# TYPE graphulo_wal_sync_seconds histogram",
		"# TYPE graphulo_kernel_seconds histogram",
		"graphulo_queries_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing %q", family)
		}
	}
	// The durable cluster synced its WAL at least once during ingest.
	if !strings.Contains(text, "graphulo_wal_sync_seconds_count") {
		t.Error("/metrics missing WAL sync histogram count")
	}

	var line struct {
		Kernel string `json:"kernel"`
		Trace  string `json:"trace"`
	}
	if err := json.Unmarshal(bytes.Split(slow.Bytes(), []byte("\n"))[0], &line); err != nil {
		t.Fatalf("slow-query log line is not JSON: %v (log: %q)", err, slow.String())
	}
	if line.Kernel == "" || line.Trace == "" {
		t.Errorf("slow-query line lacks kernel/trace: %+v", line)
	}
}
