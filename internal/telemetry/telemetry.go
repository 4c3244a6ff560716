// Package telemetry is the query-scoped observability subsystem: trace
// IDs minted per kernel invocation, spans recording where each tablet
// pass and RemoteWrite flush ran, the counter registry (the Counter
// table, with one StatSet of process-global counters per process and
// one per query), lock-free latency histograms, and the export surfaces
// (Prometheus /metrics, JSON /queries, slow-query log) built on top of
// them.
//
// The package is deliberately a leaf: it knows nothing about tablets or
// transports. The accumulo layer threads a *Query (the coordinator's
// kernel query, or a server-side pass attached to one) through its scan
// and write paths, and ships each pass's counters and spans back to the
// query's origin as an encoded Trailer at the end of the scan stream.
//
// Span model (one trace per kernel call):
//
//	kernel (root, coordinator)
//	└─ scan <table>                  client-side stream, coordinator
//	   └─ pass <table> [a,b)         tablet pass, serving process
//	      ├─ stack setup             iterator stack construction
//	      ├─ flush <table>           RemoteWrite batch leaving the pass
//	      └─ pass <operand> [c,d)    nested scan opened by an iterator
package telemetry

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one kernel invocation across every process its
// scans and writes touch.
type TraceID uint64

// String renders the trace ID the way logs and /queries do.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// idCounter mints process-unique span and trace IDs: a random per-process
// base advanced by an odd constant (a Weyl sequence), so IDs never repeat
// within a process and collide across processes with negligible
// probability — daemons mint span IDs that must stay distinct from the
// coordinator's within one trace.
var idCounter atomic.Uint64

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idCounter.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idCounter.Store(uint64(time.Now().UnixNano()))
	}
}

func newID() uint64 {
	return idCounter.Add(0x9E3779B97F4A7C15)
}

// Counter indexes one monotonic counter. The counter table below is the
// only definition of a counter: its name, its /metrics help text, and
// whether it is mirrored. Each process keeps one StatSet of them as its
// global counters, and each Query keeps one as its per-query counters;
// /metrics, DB.ScanMetrics, QueryStats, and trailers are all views of
// these sets. Adding a counter means adding a constant and its table
// entry, then bumping it where the event happens.
type Counter int

// Counters. The wire codec ships counters by index, so new counters are
// appended, never inserted.
const (
	TabletScans Counter = iota
	TabletsPrunedByRange
	EntriesPrunedByRange
	PartialProductsFolded
	WireBytes
	RPCs
	EntriesScanned
	EntriesWritten
	ScansStarted
	CacheHits
	CacheMisses
	BloomNegatives
	ColQBloomNegatives
	LocalityBlocksSkipped
	CompactionKicks
	// WriteWireBytes is the write-side slice of WireBytes. It rides
	// trailers so the coordinator can charge a kernel's server-side
	// RemoteWrite volume against its write budget.
	WriteWireBytes
	// SharedScanFolds and QueueWaitNanos are coordinator-side only and
	// never appear in trailers.
	SharedScanFolds
	QueueWaitNanos
	ScratchTablesCreated
	MemtableFreezes
	WriteStallNanos
	MajorCompactions
	MajorCompactionErrors
	NumCounters
)

// counterDef is one registry entry. A mirrored counter is counted per
// query at the same sites as globally, so a query's value equals the
// global delta across it on every transport; an external tablet
// server's trailer therefore also folds it into the coordinator's
// global set. Unmirrored counters are read from the storage layer (and
// attributed to passes only approximately) or have no per-query twin.
type counterDef struct {
	name   string
	help   string
	mirror bool
}

var counterDefs = [NumCounters]counterDef{
	TabletScans: {"tablet_scans",
		"Tablet scan passes that executed an iterator stack.", true},
	TabletsPrunedByRange: {"tablets_pruned_by_range",
		"Tablets skipped because a scan's pushed-down ranges missed their row band.", true},
	EntriesPrunedByRange: {"entries_pruned_by_range",
		"Entries dropped by server-side range filters before kernel stages or the wire.", true},
	PartialProductsFolded: {"partial_products_folded",
		"Partial products absorbed by RemoteWrite pre-aggregation.", true},
	WireBytes: {"wire_bytes",
		"Payload bytes crossing the transport.", true},
	RPCs: {"rpcs",
		"RPC round trips (calls plus stream batches).", true},
	EntriesScanned: {"entries_scanned",
		"Entries returned to scan clients.", true},
	EntriesWritten: {"entries_written",
		"Entries ingested by tablet servers.", true},
	ScansStarted: {"scans_started",
		"Scans issued, client and server-side.", true},
	CacheHits: {"cache_hits",
		"Block-cache hits on the durable read path.", false},
	CacheMisses: {"cache_misses",
		"Block-cache misses on the durable read path.", false},
	BloomNegatives: {"bloom_negatives",
		"Single-row seeks answered by a row bloom filter without a block read.", false},
	ColQBloomNegatives: {"colq_bloom_negatives",
		"Single-cell seeks answered by a (row, column-qualifier) bloom filter.", false},
	LocalityBlocksSkipped: {"locality_blocks_skipped",
		"Rfile blocks skipped by locality-group family constraints.", false},
	CompactionKicks: {"compaction_kicks",
		"Write batches that prompted a background compaction scheduler.", true},
	WriteWireBytes: {"write_wire_bytes",
		"Encoded bytes of write batches shipped to tablet servers.", true},
	SharedScanFolds: {"shared_scan_folds",
		"Scans folded onto another scan's physical tablet pass.", true},
	QueueWaitNanos: {"queue_wait_nanos",
		"Nanoseconds queries and passes spent waiting in scheduler queues.", true},
	ScratchTablesCreated: {"scratch_tables_created",
		"Intermediate tables materialised by kernel drivers and plans.", true},
	MemtableFreezes: {"memtable_freezes",
		"Memtables frozen and handed to background flush.", false},
	WriteStallNanos: {"write_stall_nanos",
		"Nanoseconds writers spent stalled on flush backpressure.", false},
	MajorCompactions: {"major_compactions",
		"Completed major compactions, manual and scheduled.", false},
	MajorCompactionErrors: {"major_compaction_errors",
		"Failed scheduled major compactions.", false},
}

// String returns the counter's stable snake_case name, used in JSON
// output and metric families.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter_%d", int(c))
	}
	return counterDefs[c].name
}

// Help returns the counter's one-line /metrics description.
func (c Counter) Help() string {
	if c < 0 || c >= NumCounters {
		return ""
	}
	return counterDefs[c].help
}

// Mirrored reports whether the counter is mirrored (see counterDef).
func (c Counter) Mirrored() bool { return c >= 0 && c < NumCounters && counterDefs[c].mirror }

// Counts is a point-in-time snapshot of a StatSet.
type Counts [NumCounters]int64

// Get returns one counter's value.
func (k Counts) Get(c Counter) int64 { return k[c] }

// MarshalJSON renders the counts as a name → value object, so /queries
// and the slow-query log stay readable without the enum.
func (k Counts) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumCounters)
	for i := Counter(0); i < NumCounters; i++ {
		m[i.String()] = k[i]
	}
	return json.Marshal(m)
}

// UnmarshalJSON reverses MarshalJSON; unknown names are ignored so old
// tooling can read newer snapshots.
func (k *Counts) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for i := Counter(0); i < NumCounters; i++ {
		k[i] = m[i.String()]
	}
	return nil
}

// StatSet is a lock-free counter block: a process's global counters or
// one query's.
type StatSet struct {
	c [NumCounters]atomic.Int64
}

// Add folds n into one counter.
func (s *StatSet) Add(c Counter, n int64) {
	if c >= 0 && c < NumCounters {
		s.c[c].Add(n)
	}
}

// Count records n events of c that happened in this process: in s, the
// process-global set, and in q (nil = untraced).
func (s *StatSet) Count(q *Query, c Counter, n int64) {
	s.Add(c, n)
	q.Add(c, n)
}

// AddMirrored folds the mirrored counters of k into s — how an external
// tablet server's pass reaches the coordinator's global set.
func (s *StatSet) AddMirrored(k Counts) {
	for c := Counter(0); c < NumCounters; c++ {
		if c.Mirrored() && k[c] != 0 {
			s.c[c].Add(k[c])
		}
	}
}

// Counts snapshots every counter.
func (s *StatSet) Counts() Counts {
	var k Counts
	for i := range s.c {
		k[i] = s.c[i].Load()
	}
	return k
}

// Span is one timed region of a query: a client scan, a tablet pass, an
// iterator-stack build, a RemoteWrite flush. Name, Host, Start, and the
// tree links are immutable after creation; only the duration is written
// when the span ends, atomically, so snapshots may race recording.
type Span struct {
	id     uint64
	parent uint64
	name   string
	host   string
	start  time.Time
	dur    atomic.Int64 // nanoseconds; 0 while the span is open
}

// ID returns the span's process-unique ID (0 for a nil span, which
// callers use as "attach to the parent I was given").
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End closes the span, recording its duration. Nil-safe and idempotent
// in effect (a second End overwrites the duration harmlessly).
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1 // an ended span is distinguishable from an open one
	}
	s.dur.Store(int64(d))
}

// SpanSnapshot is the exported (and wire) form of a Span.
type SpanSnapshot struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent"`
	Name     string        `json:"name"`
	Host     string        `json:"host"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Done     bool          `json:"done"`
}

func (s *Span) snapshot() SpanSnapshot {
	d := s.dur.Load()
	return SpanSnapshot{
		ID: s.id, Parent: s.parent, Name: s.name, Host: s.host,
		Start: s.start, Duration: time.Duration(d), Done: d != 0,
	}
}

// maxSpans bounds a query's retained span list; a kernel over thousands
// of tablets keeps the first maxSpans and counts the rest as dropped.
const maxSpans = 512

// BudgetHook is the resource-budget contract a query can carry: the
// scheduler layer implements it (sched.Budget) and the scan/write hot
// paths charge it at the same sites they move the telemetry counters.
// Defined here so telemetry stays a leaf package.
type BudgetHook interface {
	// ChargeScanEntries charges n entries delivered to the query's
	// scans; a non-nil error means the budget is exhausted and the
	// query must be cancelled.
	ChargeScanEntries(n int64) error
	// ChargeWriteBytes charges n wire bytes written on the query's
	// behalf; a non-nil error means the budget is exhausted.
	ChargeWriteBytes(n int64) error
}

// Query is the unit of observability: one kernel invocation on the
// coordinator, or one server-side tablet pass attached (by trace ID) to
// a kernel running elsewhere. Both sides accumulate counters, latency
// histograms, and spans; a pass additionally serialises itself into a
// Trailer that travels back up the scan stream to be folded into the
// originating query. All methods are nil-safe so untraced paths can
// thread a nil *Query.
type Query struct {
	reg    *Registry // nil for detached passes
	trace  TraceID
	kernel string
	host   string
	tenant string
	remote bool
	start  time.Time

	// budget is the query's resource allowance, set (if at all) before
	// the query's first scan or write. nil = unlimited.
	budget BudgetHook

	// Stats is the per-query counter block; histograms record every scan
	// pass and write batch attributed to the query (folded up from
	// trailers for work done in other processes).
	Stats      StatSet
	ScanPass   Histogram
	WriteBatch Histogram

	root *Span

	mu      sync.Mutex
	spans   []*Span
	foreign []SpanSnapshot // spans folded in from trailers
	dropped int
	done    bool
	end     time.Time
	errMsg  string
}

func newQuery(reg *Registry, trace TraceID, parent uint64, kernel, host string, remote bool) *Query {
	q := &Query{
		reg: reg, trace: trace, kernel: kernel, host: host,
		remote: remote, start: time.Now(),
	}
	q.root = &Span{id: newID(), parent: parent, name: kernel, host: host, start: q.start}
	q.spans = append(q.spans, q.root)
	return q
}

// NewPass creates a detached server-side pass record for an incoming
// scan request: its spans and counters exist only to be shipped back in
// the trailer. trace 0 (an untraced scan) still collects counters — the
// trailer is what keeps cluster-global stats accurate across external
// daemons — it just isn't attributable to a kernel.
func NewPass(trace TraceID, parent uint64, name, host string) *Query {
	q := newQuery(nil, trace, parent, name, host, true)
	q.Stats.Add(TabletScans, 1)
	return q
}

// Trace returns the query's trace ID.
func (q *Query) Trace() TraceID {
	if q == nil {
		return 0
	}
	return q.trace
}

// Tenant returns the query's tenant label ("" = default tenant).
func (q *Query) Tenant() string {
	if q == nil {
		return ""
	}
	return q.tenant
}

// WithTenant labels the query with its tenant. Call before the query's
// first scan or write (the label is read concurrently afterwards).
// Nil-safe; returns q for chaining.
func (q *Query) WithTenant(tenant string) *Query {
	if q != nil {
		q.tenant = tenant
	}
	return q
}

// SetBudget attaches a resource budget; nil-safe. Call before the
// query's first scan or write. A nil hook (or one wrapping a nil
// budget) leaves the query unlimited.
func (q *Query) SetBudget(b BudgetHook) {
	if q != nil {
		q.budget = b
	}
}

// ChargeScanEntries charges delivered scan entries against the query's
// budget; nil-safe (no query or no budget charges free).
func (q *Query) ChargeScanEntries(n int64) error {
	if q == nil || q.budget == nil {
		return nil
	}
	return q.budget.ChargeScanEntries(n)
}

// ChargeWriteBytes charges written wire bytes against the query's
// budget; nil-safe.
func (q *Query) ChargeWriteBytes(n int64) error {
	if q == nil || q.budget == nil {
		return nil
	}
	return q.budget.ChargeWriteBytes(n)
}

// RootID returns the root span's ID (0 for nil).
func (q *Query) RootID() uint64 {
	if q == nil {
		return 0
	}
	return q.root.id
}

// Add folds n into one per-query counter. Nil-safe.
func (q *Query) Add(c Counter, n int64) {
	if q != nil && n != 0 {
		q.Stats.Add(c, n)
	}
}

// StartSpan opens a child span under parent (0 selects the root span).
// Returns nil — harmless to End — when q is nil or the span budget is
// spent.
func (q *Query) StartSpan(parent uint64, name string) *Span {
	if q == nil {
		return nil
	}
	if parent == 0 {
		parent = q.root.id
	}
	s := &Span{id: newID(), parent: parent, name: name, host: q.host, start: time.Now()}
	q.mu.Lock()
	if len(q.spans)+len(q.foreign) >= maxSpans {
		q.dropped++
		q.mu.Unlock()
		return nil
	}
	q.spans = append(q.spans, s)
	q.mu.Unlock()
	return s
}

// ObserveScanPass records one tablet-pass latency. Nil-safe.
func (q *Query) ObserveScanPass(d time.Duration) {
	if q != nil {
		q.ScanPass.Observe(d)
	}
}

// ObserveWriteBatch records one write-batch latency. Nil-safe.
func (q *Query) ObserveWriteBatch(d time.Duration) {
	if q != nil {
		q.WriteBatch.Observe(d)
	}
}

// FoldTrailer merges a pass's shipped counters, histograms, and spans
// into this query — the aggregation step that turns per-process work
// into one query-wide view. Nil-safe.
func (q *Query) FoldTrailer(t *Trailer) {
	if q == nil || t == nil {
		return
	}
	for i := Counter(0); i < NumCounters; i++ {
		q.Stats.Add(i, t.Counts[i])
	}
	q.ScanPass.Fold(t.ScanPass)
	q.WriteBatch.Fold(t.WriteBatch)
	if len(t.Spans) == 0 {
		return
	}
	q.mu.Lock()
	for _, s := range t.Spans {
		if len(q.spans)+len(q.foreign) >= maxSpans {
			q.dropped++
			continue
		}
		q.foreign = append(q.foreign, s)
	}
	q.mu.Unlock()
}

// FinishPass ends a server-side pass: the root span closes, the pass
// duration lands in the pass's own ScanPass histogram (so it travels in
// the trailer), and the duration is returned for the serving process's
// global histogram. Nil-safe.
func (q *Query) FinishPass(err error) time.Duration {
	if q == nil {
		return 0
	}
	q.root.End()
	d := time.Duration(q.root.dur.Load())
	q.ScanPass.Observe(d)
	q.finish(err)
	return d
}

// Finish ends a kernel query: the root span closes, the end-to-end
// latency lands in the registry's kernel histogram, and the query moves
// from in-flight to recent (emitting a slow-query log line when over
// threshold). Nil-safe; idempotent.
func (q *Query) Finish(err error) {
	if q == nil {
		return
	}
	q.root.End()
	q.finish(err)
	if q.reg != nil {
		q.reg.finishQuery(q)
	}
}

func (q *Query) finish(err error) {
	q.mu.Lock()
	if !q.done {
		q.done = true
		q.end = time.Now()
		if err != nil {
			q.errMsg = err.Error()
		}
	}
	q.mu.Unlock()
}

// Trailer serialises the pass's accumulated counters, histograms, and
// spans for the trip back up the scan stream.
func (q *Query) Trailer() Trailer {
	t := Trailer{
		Counts:     q.Stats.Counts(),
		ScanPass:   q.ScanPass.Snapshot(),
		WriteBatch: q.WriteBatch.Snapshot(),
	}
	q.mu.Lock()
	t.Spans = make([]SpanSnapshot, 0, len(q.spans)+len(q.foreign))
	for _, s := range q.spans {
		t.Spans = append(t.Spans, s.snapshot())
	}
	t.Spans = append(t.Spans, q.foreign...)
	q.mu.Unlock()
	return t
}

// QuerySnapshot is the exported view of a query, shaped for /queries.
type QuerySnapshot struct {
	Trace      string            `json:"trace"`
	Kernel     string            `json:"kernel"`
	Host       string            `json:"host"`
	Tenant     string            `json:"tenant,omitempty"`
	Remote     bool              `json:"remote,omitempty"`
	Start      time.Time         `json:"start"`
	Duration   time.Duration     `json:"duration_ns"`
	Done       bool              `json:"done"`
	Err        string            `json:"error,omitempty"`
	Stats      Counts            `json:"stats"`
	ScanPass   HistogramSnapshot `json:"scan_pass"`
	WriteBatch HistogramSnapshot `json:"write_batch"`
	Spans      []SpanSnapshot    `json:"spans"`
	Dropped    int               `json:"spans_dropped,omitempty"`
}

// Snapshot captures the query's current state; safe while the query is
// still running.
func (q *Query) Snapshot() QuerySnapshot {
	q.mu.Lock()
	snap := QuerySnapshot{
		Trace:   q.trace.String(),
		Kernel:  q.kernel,
		Host:    q.host,
		Tenant:  q.tenant,
		Remote:  q.remote,
		Start:   q.start,
		Done:    q.done,
		Err:     q.errMsg,
		Dropped: q.dropped,
	}
	if q.done {
		snap.Duration = q.end.Sub(q.start)
	} else {
		snap.Duration = time.Since(q.start)
	}
	snap.Spans = make([]SpanSnapshot, 0, len(q.spans)+len(q.foreign))
	for _, s := range q.spans {
		snap.Spans = append(snap.Spans, s.snapshot())
	}
	snap.Spans = append(snap.Spans, q.foreign...)
	q.mu.Unlock()
	snap.Stats = q.Stats.Counts()
	snap.ScanPass = q.ScanPass.Snapshot()
	snap.WriteBatch = q.WriteBatch.Snapshot()
	return snap
}

// Options configures a Registry.
type Options struct {
	// Host labels spans and queries minted by this process ("coordinator",
	// a daemon's listen address, ...).
	Host string
	// SlowQueryThreshold emits a structured log line for every finished
	// kernel query at or over this duration; <= 0 disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query JSON lines (one object per
	// line). nil disables the log regardless of threshold.
	SlowQueryLog io.Writer
	// MaxRecent bounds the retained finished-query ring (default 64).
	MaxRecent int
}

// Registry tracks a process's queries — in-flight and a ring of recent —
// and owns the process-global latency histograms.
type Registry struct {
	host          string
	slowThreshold time.Duration
	maxRecent     int

	// Process-global latency distributions, exported as Prometheus
	// histogram families by the telemetry HTTP server.
	ScanPass   Histogram // one observation per tablet pass served here
	WriteBatch Histogram // one per write batch shipped from here
	WALSync    Histogram // one per WAL fsync issued here
	Kernel     Histogram // one per kernel query finished here
	QueueWait  Histogram // one per scheduler queue wait (admission or pass)

	started atomic.Int64

	tenantMu sync.Mutex
	tenants  map[string]*tenantAgg

	slowMu  sync.Mutex
	slowLog io.Writer

	mu       sync.Mutex
	inflight map[*Query]struct{}
	recent   []*Query
	next     int
}

// NewRegistry builds a registry.
func NewRegistry(o Options) *Registry {
	if o.MaxRecent <= 0 {
		o.MaxRecent = 64
	}
	if o.Host == "" {
		o.Host = "local"
	}
	return &Registry{
		host:          o.Host,
		slowThreshold: o.SlowQueryThreshold,
		slowLog:       o.SlowQueryLog,
		maxRecent:     o.MaxRecent,
		inflight:      map[*Query]struct{}{},
		tenants:       map[string]*tenantAgg{},
	}
}

// Host returns the registry's process label.
func (r *Registry) Host() string { return r.host }

// QueriesStarted returns the number of queries this registry has minted
// or adopted.
func (r *Registry) QueriesStarted() int64 { return r.started.Load() }

// StartQuery mints a fresh trace for one kernel invocation.
func (r *Registry) StartQuery(kernel string) *Query {
	q := newQuery(r, TraceID(newID()), 0, kernel, r.host, false)
	r.track(q)
	return q
}

// StartRemote adopts an existing trace for a server-side pass, so the
// process's /queries listing shows the passes it served. parent is the
// requesting side's span ID.
func (r *Registry) StartRemote(trace TraceID, parent uint64, name string) *Query {
	q := newQuery(r, trace, parent, name, r.host, true)
	q.Stats.Add(TabletScans, 1)
	r.track(q)
	return q
}

func (r *Registry) track(q *Query) {
	r.started.Add(1)
	r.mu.Lock()
	r.inflight[q] = struct{}{}
	r.mu.Unlock()
}

// finishQuery moves q from in-flight to the recent ring and emits the
// slow-query log line when warranted.
func (r *Registry) finishQuery(q *Query) {
	r.mu.Lock()
	if _, ok := r.inflight[q]; !ok {
		r.mu.Unlock()
		return // double Finish
	}
	delete(r.inflight, q)
	if len(r.recent) < r.maxRecent {
		r.recent = append(r.recent, q)
	} else {
		r.recent[r.next] = q
		r.next = (r.next + 1) % r.maxRecent
	}
	r.mu.Unlock()

	dur := q.end.Sub(q.start)
	if !q.remote {
		r.Kernel.Observe(dur)
		r.accumulateTenant(q)
	}
	if r.slowThreshold > 0 && dur >= r.slowThreshold && !q.remote {
		r.logSlow(q, dur)
	}
}

// tenantAgg accumulates finished-query totals per tenant label for the
// /metrics per-tenant families.
type tenantAgg struct {
	queries        int64
	entriesScanned int64
	entriesWritten int64
	queueWaitNanos int64
	sharedFolds    int64
}

// accumulateTenant folds a finished kernel query into its tenant's
// running totals. The default tenant is exported as "default".
func (r *Registry) accumulateTenant(q *Query) {
	tenant := q.tenant
	if tenant == "" {
		tenant = "default"
	}
	counts := q.Stats.Counts()
	r.tenantMu.Lock()
	agg, ok := r.tenants[tenant]
	if !ok {
		agg = &tenantAgg{}
		r.tenants[tenant] = agg
	}
	agg.queries++
	agg.entriesScanned += counts.Get(EntriesScanned)
	agg.entriesWritten += counts.Get(EntriesWritten)
	agg.queueWaitNanos += counts.Get(QueueWaitNanos)
	agg.sharedFolds += counts.Get(SharedScanFolds)
	r.tenantMu.Unlock()
}

// TenantSnapshot is one tenant's finished-query totals.
type TenantSnapshot struct {
	Tenant         string
	Queries        int64
	EntriesScanned int64
	EntriesWritten int64
	QueueWaitNanos int64
	SharedFolds    int64
}

// TenantSnapshots lists per-tenant totals sorted by tenant label —
// the /metrics per-tenant families read this.
func (r *Registry) TenantSnapshots() []TenantSnapshot {
	r.tenantMu.Lock()
	out := make([]TenantSnapshot, 0, len(r.tenants))
	for name, agg := range r.tenants {
		out = append(out, TenantSnapshot{
			Tenant:         name,
			Queries:        agg.queries,
			EntriesScanned: agg.entriesScanned,
			EntriesWritten: agg.entriesWritten,
			QueueWaitNanos: agg.queueWaitNanos,
			SharedFolds:    agg.sharedFolds,
		})
	}
	r.tenantMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// slowQueryRecord is one slow-query log line.
type slowQueryRecord struct {
	Time       time.Time     `json:"time"`
	Trace      string        `json:"trace"`
	Kernel     string        `json:"kernel"`
	DurationMS float64       `json:"duration_ms"`
	Err        string        `json:"error,omitempty"`
	Stats      Counts        `json:"stats"`
	ScanPassMS histQuantiles `json:"scan_pass_ms"`
	Spans      int           `json:"spans"`
}

type histQuantiles struct {
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

func (r *Registry) logSlow(q *Query, dur time.Duration) {
	sp := q.ScanPass.Snapshot()
	q.mu.Lock()
	nspans := len(q.spans) + len(q.foreign)
	errMsg := q.errMsg
	q.mu.Unlock()
	rec := slowQueryRecord{
		Time:       q.end,
		Trace:      q.trace.String(),
		Kernel:     q.kernel,
		DurationMS: float64(dur) / float64(time.Millisecond),
		Err:        errMsg,
		Stats:      q.Stats.Counts(),
		ScanPassMS: histQuantiles{
			P50: float64(sp.Quantile(0.50)) / float64(time.Millisecond),
			P99: float64(sp.Quantile(0.99)) / float64(time.Millisecond),
		},
		Spans: nspans,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	r.slowMu.Lock()
	if r.slowLog != nil {
		r.slowLog.Write(line)
	}
	r.slowMu.Unlock()
}

// Snapshot lists the registry's queries — in-flight first, then recent —
// newest first within each group.
func (r *Registry) Snapshot() []QuerySnapshot {
	r.mu.Lock()
	qs := make([]*Query, 0, len(r.inflight)+len(r.recent))
	for q := range r.inflight {
		qs = append(qs, q)
	}
	// Recent ring in insertion order, oldest first.
	if len(r.recent) == r.maxRecent {
		qs = append(qs, r.recent[r.next:]...)
		qs = append(qs, r.recent[:r.next]...)
	} else {
		qs = append(qs, r.recent...)
	}
	r.mu.Unlock()
	out := make([]QuerySnapshot, len(qs))
	for i, q := range qs {
		out[i] = q.Snapshot()
	}
	// Newest first.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// FormatTree renders a query's span tree for `graphulo trace` output.
func FormatTree(q QuerySnapshot) string {
	byParent := map[uint64][]SpanSnapshot{}
	ids := map[uint64]bool{}
	for _, s := range q.Spans {
		ids[s.ID] = true
	}
	var roots []SpanSnapshot
	for _, s := range q.Spans {
		if s.Parent != 0 && ids[s.Parent] {
			byParent[s.Parent] = append(byParent[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var b []byte
	b = append(b, fmt.Sprintf("trace %s %s host=%s %s", q.Trace, q.Kernel, q.Host, fmtDur(q.Duration))...)
	if q.Err != "" {
		b = append(b, fmt.Sprintf(" error=%q", q.Err)...)
	}
	b = append(b, '\n')
	var walk func(s SpanSnapshot, depth int)
	walk = func(s SpanSnapshot, depth int) {
		for i := 0; i < depth; i++ {
			b = append(b, "  "...)
		}
		dur := fmtDur(s.Duration)
		if !s.Done {
			dur = "open"
		}
		b = append(b, fmt.Sprintf("- %s %s host=%s\n", s.Name, dur, s.Host)...)
		kids := byParent[s.ID]
		sortSpans(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	sortSpans(roots)
	for _, s := range roots {
		walk(s, 1)
	}
	if q.Dropped > 0 {
		b = append(b, fmt.Sprintf("  (+%d spans dropped)\n", q.Dropped)...)
	}
	return string(b)
}

func sortSpans(spans []SpanSnapshot) {
	for i := 1; i < len(spans); i++ {
		for j := i; j > 0 && spans[j].Start.Before(spans[j-1].Start); j-- {
			spans[j], spans[j-1] = spans[j-1], spans[j]
		}
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
