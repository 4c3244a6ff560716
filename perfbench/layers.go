package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"graphulo"
)

// layerMetric is one per-layer metric with the end-to-end metric (and
// workload) it should move, stated before measuring.
type layerMetric struct {
	name, unit, better, moves string
}

// layerMetrics lists what --trace 1 reports, in BENCHMARK.json order.
var layerMetrics = []layerMetric{
	{"accumulo.rpcs_per_op", "count", "lower", "tablemult_ms, ktruss_ms (paper-kernels); lookup_p50_us (serve-mixed)"},
	{"accumulo.wire_bytes_per_op", "B", "lower", "tablemult_ms, ktruss_ms (paper-kernels); lookup_p50_us (serve-mixed)"},
	{"accumulo.scanned_per_result", "ratio", "lower", "ktruss_ms, jaccard_ms (paper-kernels); bfs_p50_ms (durable-io)"},
	{"accumulo.stream_next_ns_per_entry", "ns", "lower", "scan_entries_per_s (durable-io)"},
	{"accumulo.writer_flush_ms_p50", "ms", "lower", "ingest_edges_per_s (durable-io, serve-mixed)"},
	{"core.scratch_tables_per_op", "count", "lower", "ktruss_ms, jaccard_ms (paper-kernels)"},
	{"core.tablet_passes_per_op", "count", "lower", "ktruss_ms, jaccard_ms (paper-kernels)"},
	{"core.tablets_pruned_per_op", "count", "higher", "ktruss_ms, jaccard_ms (paper-kernels)"},
	{"iterator.partial_products_per_op", "count", "lower", "tablemult_ms (paper-kernels)"},
	{"iterator.entries_written_per_op", "count", "lower", "tablemult_ms (paper-kernels)"},
	{"iterator.fold_ratio", "ratio", "higher", "tablemult_ms (paper-kernels)"},
	{"iterator.write_wire_bytes_per_op", "B", "lower", "tablemult_ms (paper-kernels)"},
	{"iterator.scan_pass_p50_ms", "ms", "lower", "tablemult_ms, ktruss_ms (paper-kernels)"},
	{"iterator.write_batch_p50_ms", "ms", "lower", "tablemult_ms, ktruss_ms (paper-kernels)"},
	{"skv.encode_ns_per_entry", "ns", "lower", "tablemult_ms, ktruss_ms (paper-kernels); lookup_p50_us (serve-mixed)"},
	{"skv.decode_ns_per_entry", "ns", "lower", "tablemult_ms, ktruss_ms (paper-kernels); lookup_p50_us (serve-mixed)"},
	{"transport.inproc_call_us_p50", "us", "lower", "lookup_p50_us, bfs_p50_ms (serve-mixed)"},
	{"transport.tcp_call_us_p50", "us", "lower", "lookup_p50_us, bfs_p50_ms (serve-mixed)"},
	{"transport.tcp_stream_mib_per_s", "MiB/s", "higher", "lookup_p50_us, bfs_p50_ms (serve-mixed)"},
	{"tablet.write_ns_per_entry", "ns", "lower", "tablemult_ms (paper-kernels); ingest_edges_per_s (serve-mixed)"},
	{"tablet.snapshot_ns_per_entry", "ns", "lower", "tablemult_ms (paper-kernels); ingest_edges_per_s (serve-mixed)"},
	{"tablet.freezes", "count", "lower", "ingest_edges_per_s (durable-io)"},
	{"tablet.write_stall_ms", "ms", "lower", "ingest_edges_per_s (durable-io)"},
	{"wal.append_us_p50", "us", "lower", "ingest_edges_per_s (durable-io)"},
	{"wal.append_us_p99", "us", "lower", "ingest_edges_per_s (durable-io)"},
	{"wal.commits_per_fsync", "ratio", "higher", "ingest_edges_per_s (durable-io)"},
	{"rfile.scan_ns_per_entry", "ns", "lower", "scan_entries_per_s (durable-io)"},
	{"rfile.seek_us_p50", "us", "lower", "lookup_p50_us (durable-io)"},
	{"rfile.bloom_skip_ratio", "ratio", "higher", "lookup_p50_us (durable-io)"},
	{"rfile.locality_blocks_skipped_per_op", "count", "higher", "bfs_p50_ms (durable-io)"},
	{"cache.hit_ratio", "ratio", "higher", "scan_entries_per_s, lookup_p50_us (durable-io)"},
	{"cache.misses_per_op", "count", "lower", "scan_entries_per_s, lookup_p50_us (durable-io)"},
	{"store.flush_ms", "ms", "lower", "ingest_edges_per_s, stored_bytes_per_edge (durable-io)"},
	{"store.compact_ms", "ms", "lower", "ingest_edges_per_s, stored_bytes_per_edge (durable-io)"},
	{"sched.queue_wait_ms_per_query", "ms", "lower", "bfs_p90_ms, failed_frac (serve-mixed)"},
	{"sched.shared_scan_folds", "count", "higher", "bfs_p90_ms, failed_frac (serve-mixed)"},
	{"sched.refused", "count", "lower", "bfs_p90_ms, failed_frac (serve-mixed)"},
	{"sparse.spgemm_ms", "ms", "lower", "tablemult_ms (paper-kernels)"},
	{"sparse.spgemm_products", "count", "lower", "tablemult_ms (paper-kernels)"},
	{"algo.ktruss_ms", "ms", "lower", "ktruss_ms (paper-kernels)"},
	{"runtime.gc_cpu_frac", "ratio", "lower", "tablemult_ms, ktruss_ms (paper-kernels)"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "tablemult_ms, ktruss_ms (paper-kernels)"},
	{"runtime.allocs_per_op", "count", "lower", "tablemult_ms, ktruss_ms (paper-kernels)"},
	{"trace.overhead_frac", "ratio", "lower", "none: the cost of tracing itself"},
}

// paperKernels are the op kinds of one kernel round; with BFS they are
// the op kinds that run a server-side kernel query.
var (
	paperKernels = []string{"tablemult", "tablemult_client", "ktruss", "jaccard", "tricount", "pagerank"}
	kernelKinds  = append(append([]string(nil), paperKernels...), "bfs")
)

// layerReport is everything a traced run reports.
type layerReport struct {
	workload  string
	seed      uint64
	metrics   map[string]metric
	selfTime  map[string]time.Duration
	ledger    []ledgerTable
	exactness []exactRow
	spans     []Span
}

// sum adds one counter over the given op kinds (all kinds when none).
func (r *run) sum(counter string, kinds ...string) (total float64, calls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, kt := range r.perKind {
		if len(kinds) > 0 && !contains(kinds, k) {
			continue
		}
		calls += kt.calls
		switch counter {
		case "results":
			total += kt.results
		case "":
		default:
			total += kt.delta[counter]
		}
	}
	return total, calls
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perOp is a counter's total over the kinds divided by their calls.
func (r *run) perOp(counter string, kinds ...string) float64 {
	t, n := r.sum(counter, kinds...)
	return ratio(t, float64(n))
}

func (r *run) layerReport(c *cluster) *layerReport {
	lr := &layerReport{workload: r.name, seed: r.seed, metrics: map[string]metric{}}
	set := func(name string, v float64) {
		for _, m := range layerMetrics {
			if m.name == name {
				lr.metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("perfbench: unknown layer metric " + name)
	}
	total := r.root.s.Counters

	set("accumulo.rpcs_per_op", r.perOp("rpcs"))
	set("accumulo.wire_bytes_per_op", r.perOp("wire_bytes"))
	scanned, _ := r.sum("entries_scanned")
	results, _ := r.sum("results")
	set("accumulo.scanned_per_result", ratio(scanned, results))
	scanEntries, _ := r.sum("results", "scan")
	set("accumulo.stream_next_ns_per_entry", ratio(r.nextNS, scanEntries))
	set("accumulo.writer_flush_ms_p50", median(r.latencies("ingest_batch"))*1e3)

	set("core.scratch_tables_per_op", r.perOp("scratch_tables", kernelKinds...))
	set("core.tablet_passes_per_op", r.perOp("tablet_scans", kernelKinds...))
	set("core.tablets_pruned_per_op", r.perOp("tablets_pruned", kernelKinds...))

	folded, tmCalls := r.sum("partial_products_folded", "tablemult")
	written, _ := r.sum("entries_written", "tablemult")
	set("iterator.partial_products_per_op", ratio(folded+written, float64(tmCalls)))
	set("iterator.entries_written_per_op", ratio(written, float64(tmCalls)))
	set("iterator.fold_ratio", ratio(folded, folded+written))
	set("iterator.write_wire_bytes_per_op", median(r.queryStat["tablemult:write_wire_bytes"]))
	passes := append(append([]float64(nil), r.queryStat["tablemult:scan_pass_p50_ms"]...), r.queryStat["ktruss:scan_pass_p50_ms"]...)
	batches := append(append([]float64(nil), r.queryStat["tablemult:write_batch_p50_ms"]...), r.queryStat["ktruss:write_batch_p50_ms"]...)
	set("iterator.scan_pass_p50_ms", median(passes))
	set("iterator.write_batch_p50_ms", median(batches))

	rp := r.replays(c)
	for _, name := range rp.order {
		set(name, rp.values[name])
	}

	set("tablet.freezes", total["memtable_freezes"])
	set("tablet.write_stall_ms", total["write_stall_ns"]/1e6)
	set("rfile.locality_blocks_skipped_per_op", r.perOp("locality_blocks_skipped", "bfs"))
	hits, misses := total["cache_hits"], total["cache_misses"]
	set("cache.hit_ratio", ratio(hits, hits+misses))
	_, calls := r.sum("")
	set("cache.misses_per_op", ratio(misses, float64(calls)))
	set("store.flush_ms", median(r.latencies("flush"))*1e3)
	set("sched.queue_wait_ms_per_query", r.queueWaitMsPerQuery(c.db))
	set("sched.shared_scan_folds", total["shared_scan_folds"])
	set("sched.refused", float64(r.out.refused))
	set("runtime.gc_cpu_frac", ratio(total["gc_cpu_s"], total["cpu_s"]))
	set("runtime.alloc_bytes_per_op", r.perOp("alloc_bytes"))
	set("runtime.allocs_per_op", r.perOp("allocs"))

	// Run last: compaction rewrites the main graph the ops above read.
	set("store.compact_ms", r.timeCompact(c))
	set("trace.overhead_frac", r.traceOverhead(c))
	lr.exactness = r.exactness(c)

	lr.spans = r.tr.snapshot()
	lr.selfTime = layerSelfTimes(lr.spans)
	lr.ledger = r.ledger(c, rp)
	return lr
}

// queueWaitMsPerQuery is the scheduler queue wait the run's queries
// accumulated, over the number of queries, from the per-tenant totals.
func (r *run) queueWaitMsPerQuery(db *graphulo.DB) float64 {
	wait, queries := tenantTotals(db)
	return ratio(float64(wait-r.queueWait0)/1e6, float64(queries-r.queries0))
}

func tenantTotals(db *graphulo.DB) (waitNanos, queries int64) {
	for _, t := range db.Connector().Cluster().Telemetry().TenantSnapshots() {
		waitNanos += t.QueueWaitNanos
		queries += t.Queries
	}
	return waitNanos, queries
}

// recordQuery keeps the newest query's scheduler-side statistics for
// the op kind that just ran (traced runs only; kernel phases run one
// query at a time, so the newest query is that op's).
func (r *run) recordQuery(db *graphulo.DB, kind string) {
	if r.tr == nil {
		return
	}
	qs := db.QueryStats()
	if len(qs) == 0 {
		return
	}
	q := qs[0]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queryStat[kind+":write_wire_bytes"] = append(r.queryStat[kind+":write_wire_bytes"], float64(q.Counters["write_wire_bytes"]))
	r.queryStat[kind+":scan_pass_p50_ms"] = append(r.queryStat[kind+":scan_pass_p50_ms"], float64(q.ScanPassP50)/1e6)
	r.queryStat[kind+":write_batch_p50_ms"] = append(r.queryStat[kind+":write_batch_p50_ms"], float64(q.WriteBatchP50)/1e6)
}

// timeCompact times a major compaction of the main graph's A table.
func (r *run) timeCompact(c *cluster) float64 {
	t0 := time.Now()
	must(c.db.Connector().TableOperations().Compact(c.main.a), "compact")
	return float64(time.Since(t0)) / 1e6
}

// traceOverhead runs the same op sequence (one kernel round and 200
// probes) untraced and traced, twice each, alternating, on the run's
// cluster, and returns traced over untraced wall time minus one.
func (r *run) traceOverhead(c *cluster) float64 {
	var off, on time.Duration
	for i := 0; i < 4; i++ {
		o := newRun(r.name, r.seed, 1, i%2 == 1, r.dataD)
		ps := probes(c.main, randFor(r.seed, i/2), 200)
		t0 := time.Now()
		o.db = c.kernelDB()
		o.kernelRound(o.root, c.kernelDB(), c.kernel, 1000+i, r.kernelTenant)
		o.db = c.db
		for _, p := range ps {
			o.hasEdge(o.root, c.main, p)
		}
		d := time.Since(t0)
		r.absorb(o)
		if i%2 == 1 {
			on += d
		} else {
			off += d
		}
	}
	return ratio(float64(on), float64(off)) - 1
}

// absorb counts the ops of a side run (trace overhead, exactness) in
// the run's outcome, so their failures fail the run too.
func (r *run) absorb(o *run) {
	o.mu.Lock()
	out, notes := o.out, o.mismatch
	o.mu.Unlock()
	r.mu.Lock()
	r.out.add(out)
	r.mismatch = append(r.mismatch, notes...)
	r.mu.Unlock()
}

// exactRow records whether one work counter of one kernel repeats
// across two consecutive calls on one cluster and across the first
// call on two freshly set-up clusters.
type exactRow struct {
	Kernel      string  `json:"kernel"`
	Counter     string  `json:"counter"`
	First       float64 `json:"first_call"`
	Second      float64 `json:"second_call"`
	Fresh       float64 `json:"fresh_cluster_first_call"`
	Consecutive bool    `json:"repeats_consecutive"`
	AcrossFresh bool    `json:"repeats_fresh_cluster"`
}

var workCounters = []string{
	"entries_scanned", "entries_written", "partial_products_folded", "rpcs", "wire_bytes",
	"tablet_scans", "scratch_tables", "cache_hits", "cache_misses",
}

// exactness sets up a second cluster from the same seed, runs one
// kernel round on it, and compares its counters with the main run's
// first two rounds.
func (r *run) exactness(c *cluster) []exactRow {
	w, _ := findWorkload(r.name)
	fr := newRun(r.name, r.seed, 1, true, r.dataD)
	fc, err := w.setup(fr, setupReps)
	must(err, "set up fresh cluster")
	defer fc.close()
	fr.db = fc.kernelDB()
	fr.kernelRound(fr.root, fc.kernelDB(), fc.kernel, 0, r.kernelTenant)
	r.absorb(fr)
	var rows []exactRow
	for _, k := range paperKernels {
		main := r.callsOf(k)
		fresh := fr.callsOf(k)
		if len(main) < 2 || len(fresh) < 1 {
			continue
		}
		for _, ctr := range workCounters {
			a, b, f := main[0][ctr], main[1][ctr], fresh[0][ctr]
			rows = append(rows, exactRow{k, ctr, a, b, f, a == b, a == f})
		}
	}
	return rows
}

func (r *run) callsOf(kind string) []map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]map[string]float64(nil), r.calls[kind]...)
}

// ledgerRow is one layer's estimated share of a kernel call: how many
// units of work the call did there times the unit cost the layer's
// replay measured.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	Count    float64 `json:"count"`
	Unit     string  `json:"unit"`
	UnitCost float64 `json:"unit_cost_ns"`
	Ms       float64 `json:"ms"`
}

type ledgerTable struct {
	Kernel    string      `json:"kernel"`
	WallMs    float64     `json:"wall_ms"`
	Rows      []ledgerRow `json:"rows"`
	Remainder float64     `json:"unexplained_ms"`
}

// ledger splits the mean TableMult and kTruss call into count × unit
// cost per layer, leaving what the replays do not explain as remainder.
func (r *run) ledger(c *cluster, rp *replayResult) []ledgerTable {
	var out []ledgerTable
	for _, k := range []string{"tablemult", "ktruss"} {
		r.mu.Lock()
		kt := r.perKind[k]
		r.mu.Unlock()
		if kt == nil || kt.calls == 0 {
			continue
		}
		per := func(ctr string) float64 { return kt.delta[ctr] / float64(kt.calls) }
		callNS := rp.values["transport.inproc_call_us_p50"] * 1e3
		if rp.tcp {
			callNS = rp.values["transport.tcp_call_us_p50"] * 1e3
		}
		codec := rp.values["skv.encode_ns_per_entry"] + rp.values["skv.decode_ns_per_entry"]
		wireEntries := ratio(per("wire_bytes"), rp.bytesPerEntry)
		rows := []ledgerRow{
			{"tablet (snapshot read)", per("entries_scanned"), "entry", rp.values["tablet.snapshot_ns_per_entry"], 0},
			{"iterator ⊗/⊕ (sparse floor)", per("partial_products_folded") + per("entries_written"), "product", rp.nsPerProduct, 0},
			{"skv (encode+decode)", wireEntries, "entry", codec, 0},
			{"transport (call)", per("rpcs"), "rpc", callNS, 0},
			{"tablet (write)", per("entries_written"), "entry", rp.values["tablet.write_ns_per_entry"], 0},
		}
		if c.dir != "" {
			rows = append(rows, ledgerRow{"wal (append)", ratio(per("entries_written"), float64(rp.walBatch)), "batch", rp.values["wal.append_us_p50"] * 1e3, 0})
		}
		rows = append(rows, ledgerRow{"runtime (GC cpu / GOMAXPROCS)", per("gc_cpu_s") / float64(runtime.GOMAXPROCS(0)), "s", 1e9, 0})
		wall := float64(kt.wall) / float64(kt.calls) / 1e6
		rest := wall
		for i := range rows {
			rows[i].Ms = rows[i].Count * rows[i].UnitCost / 1e6
			rest -= rows[i].Ms
		}
		out = append(out, ledgerTable{k, wall, rows, rest})
	}
	return out
}

func (lr *layerReport) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d (per layer, traced)\n", lr.workload, lr.seed)
	for _, m := range layerMetrics {
		v := lr.metrics[m.name]
		fmt.Fprintf(w, "  %-38s %16.4f %-6s moves %s\n", m.name, v.Value, v.Unit, m.moves)
	}
	fmt.Fprintln(w, "self time by layer (benchmark-side spans):")
	var layers []string
	for l := range lr.selfTime {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12.1f ms\n", l, float64(lr.selfTime[l])/1e6)
	}
	for _, t := range lr.ledger {
		fmt.Fprintf(w, "layer ledger: %s, mean call %.2f ms\n", t.Kernel, t.WallMs)
		for _, row := range t.Rows {
			fmt.Fprintf(w, "  %-32s %12.4g %-8s x %10.1f ns = %9.2f ms\n", row.Layer, row.Count, row.Unit, row.UnitCost, row.Ms)
		}
		fmt.Fprintf(w, "  %-32s %46.2f ms\n", "unexplained remainder", t.Remainder)
	}
	fmt.Fprintln(w, "counter exactness (first call, second call on one cluster, first call on a fresh cluster):")
	for _, e := range lr.exactness {
		tag := func(ok bool) string {
			if ok {
				return "exact"
			}
			return "DIFFERS"
		}
		fmt.Fprintf(w, "  %-16s %-24s %12.0f %12.0f %12.0f  consecutive %-7s fresh %s\n",
			e.Kernel, e.Counter, e.First, e.Second, e.Fresh, tag(e.Consecutive), tag(e.AcrossFresh))
	}
}

// write saves spans, self times, ledger and exactness as JSON under
// outDir/trace.
func (lr *layerReport) write(r *run) error {
	dir := filepath.Join(outDir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := map[string]float64{}
	for l, d := range lr.selfTime {
		self[l] = float64(d) / 1e6
	}
	doc := map[string]any{
		"workload": lr.workload, "seed": lr.seed, "metrics": lr.metrics,
		"self_time_ms": self, "ledger": lr.ledger, "exactness": lr.exactness, "spans": lr.spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", lr.workload, lr.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}
