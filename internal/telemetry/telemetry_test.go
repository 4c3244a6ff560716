package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10},
		{time.Second, 20},
		{64 * time.Second, 26},
		{67 * time.Second, 26}, // bucket 26 bound is 1µs<<26 ≈ 67.1s
		{68 * time.Second, NumBuckets - 1},
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d.Nanoseconds()); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// le-semantics: each bound lands in its own bucket, bound+1ns in the next.
	for i := 0; i < NumBuckets-1; i++ {
		b := BucketBound(i)
		if got := bucketIndex(b.Nanoseconds()); got != i {
			t.Errorf("bound %v landed in bucket %d, want %d", b, got, i)
		}
	}
	if BucketBound(NumBuckets-1) != -1 || BucketBound(-1) != -1 {
		t.Errorf("out-of-range BucketBound should return -1")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond) // bucket 0
	}
	h.Observe(time.Second) // bucket 20
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if got := s.Quantile(0.50); got != time.Microsecond {
		t.Errorf("p50 = %v, want 1µs", got)
	}
	if got := s.Quantile(0.99); got != time.Microsecond {
		t.Errorf("p99 = %v, want 1µs (99 of 100 in bucket 0)", got)
	}
	if got := s.Quantile(1.0); got != BucketBound(20) {
		t.Errorf("p100 = %v, want bucket-20 bound %v", got, BucketBound(20))
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty quantile should be 0")
	}
	// The +Inf bucket reports the largest finite bound.
	var inf Histogram
	inf.Observe(time.Hour)
	if got := inf.Snapshot().Quantile(0.5); got != BucketBound(NumBuckets-2) {
		t.Errorf("+Inf quantile = %v, want %v", got, BucketBound(NumBuckets-2))
	}
	// Negative durations clamp to zero rather than corrupting the sum.
	var neg Histogram
	neg.Observe(-time.Second)
	if ns := neg.Snapshot(); ns.SumNanos != 0 || ns.Buckets[0] != 1 {
		t.Errorf("negative observation: sum=%d bucket0=%d", ns.SumNanos, ns.Buckets[0])
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestHistogramFold(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Microsecond)
	b.Observe(time.Second)
	b.Observe(2 * time.Second)
	a.Fold(b.Snapshot())
	s := a.Snapshot()
	if s.Count != 3 {
		t.Fatalf("folded count = %d, want 3", s.Count)
	}
	wantSum := (time.Microsecond + 3*time.Second).Nanoseconds()
	if s.SumNanos != wantSum {
		t.Fatalf("folded sum = %d, want %d", s.SumNanos, wantSum)
	}
}

func TestTrailerRoundTrip(t *testing.T) {
	q := NewPass(TraceID(0xdeadbeef), 77, "pass t [a,b)", "daemon:1")
	q.Add(EntriesScanned, 1234)
	q.Add(PartialProductsFolded, 56)
	q.ObserveWriteBatch(3 * time.Millisecond)
	sp := q.StartSpan(0, "stack setup")
	sp.End()
	q.FinishPass(nil)

	enc := AppendTrailer(nil, q.Trailer())
	got, err := DecodeTrailer(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Counts.Get(EntriesScanned) != 1234 ||
		got.Counts.Get(PartialProductsFolded) != 56 ||
		got.Counts.Get(TabletScans) != 1 {
		t.Fatalf("counts mismatch: %+v", got.Counts)
	}
	if got.WriteBatch.Count != 1 {
		t.Fatalf("write-batch hist count = %d, want 1", got.WriteBatch.Count)
	}
	if got.ScanPass.Count != 1 {
		t.Fatalf("scan-pass hist count = %d, want 1 (FinishPass self-observation)", got.ScanPass.Count)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(got.Spans))
	}
	root := got.Spans[0]
	if root.Name != "pass t [a,b)" || root.Parent != 77 || root.Host != "daemon:1" || !root.Done {
		t.Fatalf("root span mismatch: %+v", root)
	}
	if got.Spans[1].Parent != root.ID {
		t.Fatalf("child span parent = %d, want root %d", got.Spans[1].Parent, root.ID)
	}
}

func TestTrailerDecodeHostile(t *testing.T) {
	q := NewPass(1, 2, "p", "h")
	q.StartSpan(0, "x").End()
	q.FinishPass(nil)
	enc := AppendTrailer(nil, q.Trailer())

	// Every strict prefix must error, never panic.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeTrailer(enc[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(enc))
		}
	}
	// Trailing garbage is rejected.
	if _, err := DecodeTrailer(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Fatalf("trailing bytes accepted")
	}
	// Unknown version.
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := DecodeTrailer(bad); err == nil {
		t.Fatalf("unknown version accepted")
	}
	// Hostile span count far beyond payload.
	hostile := []byte{trailerVersion, 0 /* counters */, 0, 0, 0 /* hist1 */, 0, 0, 0 /* hist2 */, 0xFF, 0xFF, 0xFF, 0x7F /* span count */}
	if _, err := DecodeTrailer(hostile); err == nil {
		t.Fatalf("hostile span count accepted")
	}
	// Out-of-range counter index.
	oob := []byte{trailerVersion, 1, byte(NumCounters), 5, 0, 0, 0, 0, 0, 0, 0}
	if _, err := DecodeTrailer(oob); err == nil {
		t.Fatalf("out-of-range counter index accepted")
	}
}

func TestCountsJSON(t *testing.T) {
	var k Counts
	k[WireBytes] = 42
	buf, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	if m["wire_bytes"] != 42 || len(m) != int(NumCounters) {
		t.Fatalf("unexpected JSON: %s", buf)
	}
}

func TestRegistryRecentRing(t *testing.T) {
	r := NewRegistry(Options{Host: "coord", MaxRecent: 3})
	for i := 0; i < 5; i++ {
		q := r.StartQuery(fmt.Sprintf("k%d", i))
		q.Finish(nil)
	}
	snaps := r.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("recent = %d, want 3", len(snaps))
	}
	// Newest first: k4, k3, k2.
	for i, want := range []string{"k4", "k3", "k2"} {
		if snaps[i].Kernel != want {
			t.Errorf("snaps[%d] = %s, want %s", i, snaps[i].Kernel, want)
		}
	}
	if r.QueriesStarted() != 5 {
		t.Errorf("started = %d, want 5", r.QueriesStarted())
	}
	// In-flight queries are listed too.
	live := r.StartQuery("live")
	found := false
	for _, s := range r.Snapshot() {
		if s.Kernel == "live" && !s.Done {
			found = true
		}
	}
	if !found {
		t.Fatalf("in-flight query missing from snapshot")
	}
	live.Finish(nil)
	live.Finish(nil) // double Finish must be harmless
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry(Options{Host: "c", SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &buf})
	q := r.StartQuery("TableMult")
	q.Add(EntriesScanned, 9)
	q.ObserveScanPass(5 * time.Millisecond)
	time.Sleep(time.Millisecond)
	q.Finish(fmt.Errorf("boom"))

	line := buf.String()
	if !strings.HasSuffix(line, "\n") {
		t.Fatalf("log line not newline-terminated: %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if rec["kernel"] != "TableMult" || rec["error"] != "boom" {
		t.Fatalf("unexpected record: %v", rec)
	}
	stats := rec["stats"].(map[string]any)
	if stats["entries_scanned"].(float64) != 9 {
		t.Fatalf("stats missing: %v", stats)
	}
	// Remote passes never hit the slow log.
	buf.Reset()
	p := r.StartRemote(7, 0, "pass")
	time.Sleep(time.Millisecond)
	p.FinishPass(nil)
	if buf.Len() != 0 {
		t.Fatalf("remote pass logged as slow query: %s", buf.String())
	}
}

func TestQuerySpanBudget(t *testing.T) {
	q := NewPass(1, 0, "p", "h")
	for i := 0; i < maxSpans+10; i++ {
		q.StartSpan(0, "s")
	}
	snap := q.Snapshot()
	if len(snap.Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(snap.Spans), maxSpans)
	}
	if snap.Dropped != 11 { // root occupied one slot
		t.Fatalf("dropped = %d, want 11", snap.Dropped)
	}
}

func TestNilQuerySafe(t *testing.T) {
	var q *Query
	q.Add(WireBytes, 1)
	q.ObserveScanPass(time.Second)
	q.ObserveWriteBatch(time.Second)
	q.FoldTrailer(&Trailer{})
	q.StartSpan(0, "x").End()
	q.FinishPass(nil)
	q.Finish(nil)
	if q.Trace() != 0 || q.RootID() != 0 {
		t.Fatal("nil query should report zero IDs")
	}
}

func TestFoldTrailerLinksSpans(t *testing.T) {
	coord := NewRegistry(Options{Host: "coordinator"})
	q := coord.StartQuery("TableMult")
	scan := q.StartSpan(0, "scan T")

	pass := NewPass(q.Trace(), scan.ID(), "pass T [a,b)", "daemon:9471")
	pass.Add(EntriesScanned, 100)
	pass.FinishPass(nil)
	tr := pass.Trailer()
	enc := AppendTrailer(nil, tr)
	dec, err := DecodeTrailer(enc)
	if err != nil {
		t.Fatal(err)
	}
	q.FoldTrailer(&dec)
	scan.End()
	q.Finish(nil)

	snap := q.Snapshot()
	if snap.Stats.Get(EntriesScanned) != 100 || snap.Stats.Get(TabletScans) != 1 {
		t.Fatalf("folded stats wrong: %+v", snap.Stats)
	}
	// The daemon pass span must parent onto the coordinator's scan span.
	ids := map[uint64]SpanSnapshot{}
	for _, s := range snap.Spans {
		ids[s.ID] = s
	}
	var passSpan *SpanSnapshot
	for _, s := range snap.Spans {
		if s.Host == "daemon:9471" {
			cp := s
			passSpan = &cp
		}
	}
	if passSpan == nil {
		t.Fatal("daemon span not folded in")
	}
	parent, ok := ids[passSpan.Parent]
	if !ok || parent.Name != "scan T" {
		t.Fatalf("pass span parent unresolved: %+v", passSpan)
	}
	if parent.Parent != q.RootID() {
		t.Fatalf("scan span should parent on root")
	}
	// FormatTree renders the full tree with the remote host visible.
	tree := FormatTree(snap)
	if !strings.Contains(tree, "daemon:9471") || !strings.Contains(tree, "scan T") {
		t.Fatalf("tree missing spans:\n%s", tree)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry(Options{Host: "coordinator"})
	q := reg.StartQuery("Jaccard")
	q.ObserveScanPass(2 * time.Millisecond)
	reg.ScanPass.Observe(2 * time.Millisecond)
	reg.WALSync.Observe(40 * time.Microsecond)
	q.Finish(nil)

	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Registry: reg,
		Counts: func() Counts {
			var k Counts
			k[WireBytes] = 77
			return k
		},
		Gauges: func() []Sample {
			return []Sample{{Name: "scans_in_flight", Value: 2}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		"graphulo_wire_bytes_total 77",
		"# TYPE graphulo_wire_bytes_total counter",
		"# TYPE graphulo_scans_in_flight gauge",
		"graphulo_scans_in_flight 2",
		"graphulo_queries_total 1",
		"# TYPE graphulo_scan_pass_seconds histogram",
		"graphulo_scan_pass_seconds_count 1",
		"graphulo_wal_sync_seconds_count 1",
		"graphulo_kernel_seconds_count 1",
		`le="+Inf"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
	// Cumulative buckets: the +Inf bucket equals the count.
	if !strings.Contains(metrics, "graphulo_scan_pass_seconds_bucket{le=\"+Inf\"} 1") {
		t.Errorf("+Inf bucket should be cumulative total:\n%s", metrics)
	}

	queries := get("/queries")
	var out struct {
		Host    string          `json:"host"`
		Queries []QuerySnapshot `json:"queries"`
	}
	if err := json.Unmarshal([]byte(queries), &out); err != nil {
		t.Fatalf("/queries not JSON: %v", err)
	}
	if out.Host != "coordinator" || len(out.Queries) != 1 || out.Queries[0].Kernel != "Jaccard" {
		t.Fatalf("unexpected /queries: %s", queries)
	}

	if !strings.Contains(get("/debug/pprof/cmdline"), "") {
		t.Fatal("pprof unreachable")
	}
}

func TestTraceIDString(t *testing.T) {
	if got := TraceID(0xab).String(); got != "00000000000000ab" {
		t.Fatalf("TraceID string = %q", got)
	}
	a, b := newID(), newID()
	if a == b || a == 0 {
		t.Fatalf("newID not unique: %x %x", a, b)
	}
}

// TestCounterRegistryComplete holds every Counter to the registry
// contract: a name and help text, exactly one graphulo_<name>_total
// family on /metrics carrying its value, and a lossless trip through
// the trailer codec. A counter added to the enum without its table
// entry fails here.
func TestCounterRegistryComplete(t *testing.T) {
	var k Counts
	for c := Counter(0); c < NumCounters; c++ {
		k[c] = int64(1000 + c)
	}
	metrics := string(renderMetrics(ServerConfig{Counts: func() Counts { return k }}))
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		name, help := c.String(), c.Help()
		if name == "" || help == "" {
			t.Errorf("counter %d: name %q help %q, want both non-empty", int(c), name, help)
			continue
		}
		if seen[name] {
			t.Errorf("counter name %q registered twice", name)
		}
		seen[name] = true
		family := "graphulo_" + name + "_total"
		if n := strings.Count(metrics, "\n"+family+" "); n != 1 {
			t.Errorf("/metrics has %d %s samples, want 1", n, family)
		}
		if want := fmt.Sprintf("\n%s %d\n", family, k[c]); !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
		if !strings.Contains(metrics, "# TYPE "+family+" counter\n") {
			t.Errorf("/metrics lacks the TYPE line of %s", family)
		}
	}
	got, err := DecodeTrailer(AppendTrailer(nil, Trailer{Counts: k}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts != k {
		t.Fatalf("trailer round trip: got %v, want %v", got.Counts, k)
	}
}
