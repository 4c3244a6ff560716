package main

import (
	"fmt"
	"io"
	"os"
)

// endToEndMetric is one metric a user of the system sees. kind names
// the recorded samples it summarises; permille 500 is the median, other
// values a tail percentile.
type endToEndMetric struct {
	name, unit string
	kind       string
	permille   int
	scale      float64 // samples are seconds (or per-second rates); scale converts
}

// endToEndMetrics lists what --trace 0 reports, in BENCHMARK.json order.
var endToEndMetrics = []endToEndMetric{
	{"setup_s", "s", "rate:setup", 500, 1},
	{"tablemult_ms", "ms", "tablemult", 500, 1e3},
	{"tablemult_client_ms", "ms", "tablemult_client", 500, 1e3},
	{"ktruss_ms", "ms", "ktruss", 500, 1e3},
	{"jaccard_ms", "ms", "jaccard", 500, 1e3},
	{"tricount_ms", "ms", "tricount", 500, 1e3},
	{"pagerank_ms", "ms", "pagerank", 500, 1e3},
	{"bfs_p50_ms", "ms", "bfs", 500, 1e3},
	{"bfs_p90_ms", "ms", "bfs", 900, 1e3},
	{"lookup_p50_us", "us", "lookup", 500, 1e6},
	{"lookup_p99_us", "us", "lookup", 990, 1e6},
	{"ingest_edges_per_s", "edges/s", "rate:ingest", 500, 1},
	{"scan_entries_per_s", "entries/s", "rate:scan", 500, 1},
	{"stored_bytes_per_edge", "B/edge", "", 0, 0},
	{"peak_rss_mib", "MiB", "", 0, 0},
}

// endToEnd summarises the run. A tail percentile with fewer than
// tailFloor samples beyond it is left out, and the caller fails the run:
// every workload is sized to fill each tail it reports.
func (r *run) endToEnd(c *cluster) map[string]metric {
	out := map[string]metric{}
	for _, m := range endToEndMetrics {
		var v float64
		switch m.name {
		case "stored_bytes_per_edge":
			var err error
			v, err = storedBytesPerEdge(c.heldBytes, len(c.main.g.Edges))
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				continue
			}
		case "peak_rss_mib":
			v = peakRSSMiB()
		default:
			xs := r.latencies(m.kind)
			if len(xs) == 0 {
				continue
			}
			if m.permille == 500 {
				v = median(xs)
			} else {
				var ok bool
				if v, ok = percentile(xs, m.permille); !ok {
					continue
				}
			}
			v *= m.scale
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// printEndToEnd writes the human-readable table: every metric by name
// with its unit and sample count, plus failed_frac, which the result
// line carries as failed/attempted.
func printEndToEnd(w io.Writer, r *run, ms map[string]metric) {
	fmt.Fprintf(w, "workload %s seed %d (end to end, untraced)\n", r.name, r.seed)
	for _, m := range endToEndMetrics {
		v, ok := ms[m.name]
		if !ok {
			fmt.Fprintf(w, "  %-24s omitted (too few samples)\n", m.name)
			continue
		}
		n := ""
		if m.kind != "" {
			n = fmt.Sprintf("n=%d", len(r.latencies(m.kind)))
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-10s %s\n", m.name, v.Value, v.Unit, n)
	}
	fmt.Fprintf(w, "  %-24s %14.4f %-10s attempted=%d refused=%d errored=%d mismatched=%d\n",
		"failed_frac", r.out.failedFrac(), "1", r.out.attempted, r.out.refused, r.out.errored, r.out.mismatched)
}
