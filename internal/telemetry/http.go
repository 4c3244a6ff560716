package telemetry

// The opt-in telemetry HTTP endpoint served by coordinators
// (Config.MetricsAddr) and `graphulo serve` daemons (-metrics-addr):
//
//	/metrics        Prometheus text exposition: every registry counter
//	                and the process gauges, plus the registry's latency
//	                histograms
//	/queries        JSON listing of recent and in-flight queries with
//	                their span trees
//	/debug/pprof/*  the standard Go profiling endpoints
//
// Everything is stdlib: the Prometheus rendering is hand-rolled text
// format, which scrapers accept verbatim.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Sample is one process gauge exported on /metrics. Name is the bare
// metric name ("scans_in_flight").
type Sample struct {
	Name  string
	Help  string
	Value int64
}

// ServerConfig wires a telemetry endpoint to its data sources.
type ServerConfig struct {
	// Registry supplies the query listing and the latency histograms.
	Registry *Registry
	// Counts snapshots the process-global counters per scrape; every
	// Counter is exported as graphulo_<name>_total. nil exports none.
	Counts func() Counts
	// Gauges snapshots the process gauges per scrape; nil means none.
	Gauges func() []Sample
}

// Server is a running telemetry endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the telemetry endpoint on addr (host:port; :0 picks an
// ephemeral port — read it back with Addr).
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: NewHandler(cfg)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the endpoint's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }

// NewHandler builds the endpoint's HTTP handler (for embedding in an
// existing server).
func NewHandler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(renderMetrics(cfg))
	})
	mux.HandleFunc("/queries", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snaps []QuerySnapshot
		host := ""
		if cfg.Registry != nil {
			snaps = cfg.Registry.Snapshot()
			host = cfg.Registry.Host()
		}
		if snaps == nil {
			snaps = []QuerySnapshot{}
		}
		json.NewEncoder(w).Encode(struct {
			Host    string          `json:"host"`
			Queries []QuerySnapshot `json:"queries"`
		}{Host: host, Queries: snaps})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// renderMetrics produces the Prometheus text exposition.
func renderMetrics(cfg ServerConfig) []byte {
	var b strings.Builder
	if cfg.Counts != nil {
		k := cfg.Counts()
		for c := Counter(0); c < NumCounters; c++ {
			name := "graphulo_" + c.String() + "_total"
			fmt.Fprintf(&b, "# HELP %s %s\n", name, c.Help())
			fmt.Fprintf(&b, "# TYPE %s counter\n", name)
			fmt.Fprintf(&b, "%s %d\n", name, k[c])
		}
	}
	if cfg.Gauges != nil {
		for _, s := range cfg.Gauges() {
			name := "graphulo_" + s.Name
			fmt.Fprintf(&b, "# HELP %s %s\n", name, s.Help)
			fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
			fmt.Fprintf(&b, "%s %d\n", name, s.Value)
		}
	}
	if reg := cfg.Registry; reg != nil {
		fmt.Fprintf(&b, "# TYPE graphulo_queries_total counter\n")
		fmt.Fprintf(&b, "graphulo_queries_total %d\n", reg.QueriesStarted())
		renderHist(&b, "graphulo_scan_pass_seconds",
			"Latency of tablet scan passes served by this process.", reg.ScanPass.Snapshot())
		renderHist(&b, "graphulo_write_batch_seconds",
			"Latency of write batches shipped from this process.", reg.WriteBatch.Snapshot())
		renderHist(&b, "graphulo_wal_sync_seconds",
			"Latency of WAL fsyncs issued by this process.", reg.WALSync.Snapshot())
		renderHist(&b, "graphulo_kernel_seconds",
			"End-to-end latency of kernel queries finished by this process.", reg.Kernel.Snapshot())
		renderHist(&b, "graphulo_queue_wait_seconds",
			"Time queries and tablet passes spent waiting in scheduler queues.", reg.QueueWait.Snapshot())
		renderTenants(&b, reg.TenantSnapshots())
	}
	return []byte(b.String())
}

// renderTenants renders the per-tenant counter families — one labelled
// sample per tenant that has finished at least one kernel query.
func renderTenants(b *strings.Builder, tenants []TenantSnapshot) {
	if len(tenants) == 0 {
		return
	}
	families := []struct {
		name  string
		help  string
		value func(TenantSnapshot) int64
	}{
		{"graphulo_tenant_queries_total", "Kernel queries finished, by tenant.",
			func(t TenantSnapshot) int64 { return t.Queries }},
		{"graphulo_tenant_entries_scanned_total", "Entries returned to scans, by tenant.",
			func(t TenantSnapshot) int64 { return t.EntriesScanned }},
		{"graphulo_tenant_entries_written_total", "Entries written, by tenant.",
			func(t TenantSnapshot) int64 { return t.EntriesWritten }},
		{"graphulo_tenant_queue_wait_nanos_total", "Nanoseconds spent in scheduler queues, by tenant.",
			func(t TenantSnapshot) int64 { return t.QueueWaitNanos }},
		{"graphulo_tenant_shared_scan_folds_total", "Scans served by another scan's physical pass, by tenant.",
			func(t TenantSnapshot) int64 { return t.SharedFolds }},
	}
	for _, f := range families {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(b, "# TYPE %s counter\n", f.name)
		for _, t := range tenants {
			fmt.Fprintf(b, "%s{tenant=%q} %d\n", f.name, t.Tenant, f.value(t))
		}
	}
}

// renderHist renders one histogram family with cumulative le buckets.
func renderHist(b *strings.Builder, name, help string, s HistogramSnapshot) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := int64(0)
	for i := 0; i < NumBuckets-1; i++ {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(BucketBound(i).Seconds(), 'g', -1, 64)
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	cum += s.Buckets[NumBuckets-1]
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", name, strconv.FormatFloat(
		time.Duration(s.SumNanos).Seconds(), 'g', -1, 64))
	fmt.Fprintf(b, "%s_count %d\n", name, s.Count)
}
