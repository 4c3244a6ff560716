// Package accumulo implements an embedded Accumulo-style mini-cluster:
// multiple tablet servers hosting row-range tablets, tables with splits
// and per-scope iterator stacks, and thin clients (BatchWriter, Scanner,
// BatchScanner) that talk to the servers through a serialised wire
// protocol.
//
// This is the substitution for the paper's Apache Accumulo deployment
// (see DESIGN.md §2): the storage contract — sorted (row, colF, colQ,
// ts) → value entries, range scans, server-side iterators at scan/minc/
// majc scopes — matches what a thin Accumulo client sees, so the
// Graphulo kernels built on top exercise the same code paths.
//
// Every data-plane exchange — write batches, scan batches, and the
// scans and writes issued by server-side iterators (RemoteSource,
// TwoTableIterator, RemoteWrite) — crosses a transport between client
// and tablet server (internal/transport). Config.Transport selects the
// wire: "inproc" (default) hands the codec-serialised batches across
// channels inside the process, "tcp" gives every tablet server its own
// socket so TableMult's tablet→tablet partial-product flow crosses real
// connections, and Config.Servers points the cluster at standalone
// tablet-server processes (cmd/graphulo serve) so the flow crosses OS
// process — or machine — boundaries, as in the paper's deployment. The
// kernels produce identical results on every transport; the equivalence
// tests pin it.
//
// Scans are streaming: every scan is an EntryStream cursor fed by
// per-tablet fetch workers that each relay one remote tablet scan, up
// to Config.ScanParallelism tablets concurrently. The server runs the
// iterator stack where the tablet lives and streams back one wire batch
// at a time with backpressure, so a whole-table scan or kernel pass
// buffers wire batches, never the table, and the heavy per-tablet work
// (iterator stacks, TwoTableIterator products, RemoteWrite batching)
// runs in parallel across tablets exactly as the paper's tablet servers
// do. Scanner.Entries and BatchScanner.Entries remain as collect-all
// conveniences on top of the cursor.
//
// The cluster runs in one of two durability modes. With an empty
// Config.DataDir everything lives in memory, as a test harness expects.
// With DataDir set, the cluster persists like Accumulo does: tables,
// splits, and iterator settings live in a manifest, each tablet appends
// writes to a write-ahead log before acknowledging them, and
// compactions produce immutable on-disk rfiles. OpenMiniCluster on the
// same directory recovers the full cluster state — manifest first, then
// WAL replay into the memtables — so even an unclean shutdown loses no
// acknowledged write. Close flushes and releases the directory.
package accumulo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/sched"
	"graphulo/internal/skv"
	"graphulo/internal/store"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// Scope identifies where an iterator stack applies, as in Accumulo.
type Scope int

// Iterator scopes.
const (
	ScanScope Scope = iota // applied to every scan
	MincScope              // applied during minor compaction
	MajcScope              // applied during major compaction
)

// AllScopes lists every scope, for convenience when attaching combiners.
var AllScopes = []Scope{ScanScope, MincScope, MajcScope}

// scopeNames maps scopes to the stable names used in the manifest.
var scopeNames = map[Scope]string{ScanScope: "scan", MincScope: "minc", MajcScope: "majc"}

func scopeFromName(name string) (Scope, bool) {
	for s, n := range scopeNames {
		if n == name {
			return s, true
		}
	}
	return 0, false
}

// Transport selector values for Config.Transport.
const (
	// TransportInProc keeps every tablet server in the process; the wire
	// codec round-trips every batch across a channel boundary.
	TransportInProc = "inproc"
	// TransportTCP launches every tablet server on its own loopback
	// socket; all data-plane traffic crosses real TCP connections.
	TransportTCP = "tcp"
)

// Config sizes the mini-cluster. The public API re-exports it as
// graphulo.ClusterConfig; zero values select the documented defaults.
type Config struct {
	// TabletServers is the number of tablet server instances (default 2).
	TabletServers int
	// MemLimit is the per-tablet memtable entry limit before the
	// memtable is frozen for a background minor compaction (default
	// 1<<14).
	MemLimit int
	// WireBatch is the number of entries per RPC batch (default 4096).
	WireBatch int
	// ScanParallelism bounds how many tablets one scan (or one
	// server-side kernel pass) executes concurrently (default 4). With 1
	// tablets are scanned strictly in sequence; higher values let
	// pre-split tables run TableMult and friends on several cores at
	// once, while each scan still buffers only ScanParallelism wire
	// batches regardless of table size.
	ScanParallelism int
	// Transport selects the wire the data plane crosses: TransportInProc
	// ("inproc", the default) keeps every tablet server in the process
	// behind the serialised codec; TransportTCP ("tcp") gives each tablet
	// server its own loopback socket so every scan batch, write batch,
	// and tablet→tablet kernel flow crosses a real connection. Kernels
	// produce identical results on both. Ignored when Servers is set
	// (which implies TCP).
	Transport string
	// Servers lists external tablet-server endpoints (host:port)
	// started with `graphulo serve`. When set, the cluster launches no
	// tablet servers of its own: tablets are hosted by the listed
	// processes and all data-plane traffic crosses process — or machine
	// — boundaries. External clusters are in-memory only (no DataDir)
	// and do not support tablet-level admin ops (splits, flush,
	// compact).
	Servers []string
	// DataDir, when non-empty, makes the cluster durable: tables and
	// data persist under this directory (manifest + WAL + rfiles) and a
	// later open on it recovers them, replaying the WAL for writes that
	// were never flushed. Only one cluster may hold a data directory at
	// a time. Empty keeps everything in memory.
	DataDir string
	// NoSync skips per-append WAL fsyncs in durable mode, trading crash
	// durability for ingest speed (benchmarks and bulk loads; crash
	// durability is reduced to OS buffering).
	NoSync bool
	// BlockCacheBytes bounds the shared rfile block cache of a durable
	// cluster: repeated scans decode each resident block once instead
	// of re-reading, re-CRCing, and re-decoding it from disk. 0 selects
	// the default capacity (32 MiB); negative disables the cache.
	BlockCacheBytes int64
	// BloomFilterBits sizes the per-rfile row bloom filters, in bits
	// per distinct row: single-row scans (BFS expansions, point reads)
	// skip rfiles that cannot contain the row. 0 selects the default
	// density (10); negative disables the filters.
	BloomFilterBits int
	// ColQBloomBits sizes the per-rfile (row, column-qualifier) bloom
	// filters, in bits per distinct pair: cell-confined seeks (edge
	// existence probes via HasEdge, single-cell reads) skip rfiles that
	// cannot contain the pair. 0 selects the default density (10);
	// negative disables the filters.
	ColQBloomBits int
	// MemtableFlushBytes freezes a tablet's memtable for background
	// flush once its approximate in-memory footprint reaches this many
	// bytes, regardless of entry count — wide values spill on bytes,
	// narrow values on MemLimit, whichever trips first. 0 selects the
	// default budget (64 MiB); negative disables the byte trigger.
	MemtableFlushBytes int
	// MemtableMaxFrozen bounds each tablet's frozen-memtable queue:
	// writers stall (counted in write_stall_nanos) once this many frozen
	// memtables await background flush. A deeper queue absorbs longer
	// ingest bursts at the cost of memory and scan merge width. 0
	// selects the default depth (2).
	MemtableMaxFrozen int
	// MetricsAddr, when non-empty, serves the coordinator's telemetry
	// HTTP endpoint on this address (host:port; ":0" picks an ephemeral
	// port, read it back with DB.MetricsAddr): Prometheus-text /metrics,
	// JSON /queries with per-query span trees, and /debug/pprof. Empty
	// keeps telemetry in-process only.
	MetricsAddr string
	// SlowQueryThreshold, when positive, logs every kernel query whose
	// end-to-end duration reaches it as one structured JSON line on
	// SlowQueryLog. Zero disables the slow-query log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines; nil disables the log
	// regardless of threshold.
	SlowQueryLog io.Writer
	// DefaultTenant labels kernel queries that carry no explicit tenant
	// (MultOptions.Tenant, AdjBFSOptions.Tenant); "" is itself a valid
	// label, exported as "default". Tenants are the unit of fair-share
	// scheduling, budget accounting, per-tenant telemetry, and
	// cache-partition accounting.
	DefaultTenant string
	// MaxConcurrentQueries bounds kernel queries executing at once; the
	// excess queues for admission. 0 selects the default (64); negative
	// removes the bound.
	MaxConcurrentQueries int
	// MaxQueuedQueries bounds the admission queue; a query arriving with
	// the queue full is rejected with a typed AdmissionError instead of
	// waiting. 0 selects the default (256); negative rejects immediately
	// once the concurrency slots are full.
	MaxQueuedQueries int
	// MaxConcurrentPasses, when positive, bounds physical tablet scan
	// passes dispatched at once across all queries and schedules the
	// excess by weighted fair queuing across tenants (TenantWeights).
	// Queued compatible scans of the same tablet fold onto one physical
	// pass (counted in shared_scan_folds). 0 or negative leaves passes
	// bounded only by ScanParallelism per scan.
	MaxConcurrentPasses int
	// TenantWeights sets relative fair-share weights for pass
	// scheduling; unlisted tenants weigh 1. Only consulted when
	// MaxConcurrentPasses > 0.
	TenantWeights map[string]int
	// ScanEntryBudget, when positive, bounds the entries any one kernel
	// query may scan; crossing it cancels the query with a typed
	// BudgetError surfaced through the kernel's error return.
	ScanEntryBudget int64
	// WriteByteBudget, when positive, bounds the wire bytes any one
	// kernel query may write; crossing it fails the query with a typed
	// BudgetError.
	WriteByteBudget int64
	// CacheTenantSoftCapBytes, when positive, soft-caps each tenant's
	// share of the durable block cache: a tenant inserting past the cap
	// evicts its own least-recently-used blocks first, so one tenant's
	// table sweep cannot strip the whole cache from the others.
	CacheTenantSoftCapBytes int64
	// MaxRunsPerTablet, when positive, starts a background compaction
	// scheduler per durable table: a tablet whose immutable-run count
	// exceeds this threshold has a contiguous group of similar-sized
	// runs merged (size-tiered picking, with the table's majc iterator
	// stack), keeping scan merge width bounded under sustained ingest
	// without rewriting the largest runs on every pass. 0 or negative
	// keeps major compaction manual-only.
	MaxRunsPerTablet int
}

func (c Config) withDefaults() Config {
	if len(c.Servers) > 0 {
		c.TabletServers = len(c.Servers)
	}
	if c.TabletServers <= 0 {
		c.TabletServers = 2
	}
	if c.MemLimit <= 0 {
		c.MemLimit = 1 << 14
	}
	if c.WireBatch <= 0 {
		c.WireBatch = 4096
	}
	if c.ScanParallelism <= 0 {
		c.ScanParallelism = 4
	}
	if c.MemtableFlushBytes == 0 {
		c.MemtableFlushBytes = 64 << 20
	}
	if c.MemtableMaxFrozen <= 0 {
		c.MemtableMaxFrozen = tablet.DefaultMaxFrozen
	}
	return c
}

// flushBytes resolves Config.MemtableFlushBytes to the value tablets
// take: the negative "disabled" sentinel becomes 0.
func (c Config) flushBytes() int {
	if c.MemtableFlushBytes < 0 {
		return 0
	}
	return c.MemtableFlushBytes
}

// Metrics holds a process's scan-pipeline gauges; all fields are
// atomic. Monotonic counters live in the process-global
// telemetry.StatSet beside it.
type Metrics struct {
	// ScansInFlight gauges tablet scan passes currently executing on
	// this process's tablet servers; MaxScansInFlight records its
	// high-water mark (evidence of per-tablet parallelism).
	ScansInFlight    atomic.Int64
	MaxScansInFlight atomic.Int64
	// EntriesBuffered gauges entries currently held across all scan
	// pipelines (decoded wire batches in flight plus batches under
	// consumption, summed over concurrent streams, client and remote);
	// MaxEntriesBuffered records its high-water mark. Bounded scans keep
	// the peak near WireBatch × ScanParallelism × concurrent streams
	// regardless of table size — the observable form of the streaming
	// refactor's memory claim.
	EntriesBuffered    atomic.Int64
	MaxEntriesBuffered atomic.Int64
}

// atomicMax folds n into an atomic high-water mark.
func atomicMax(max *atomic.Int64, n int64) {
	for {
		cur := max.Load()
		if n <= cur || max.CompareAndSwap(cur, n) {
			return
		}
	}
}

// noteBuffered folds an observed buffered-entry count into the
// MaxEntriesBuffered high-water mark.
func (m *Metrics) noteBuffered(n int64) { atomicMax(&m.MaxEntriesBuffered, n) }

// noteScanStart bumps ScansInFlight and folds the new value into its
// high-water mark.
func (m *Metrics) noteScanStart() {
	atomicMax(&m.MaxScansInFlight, m.ScansInFlight.Add(1))
}

// gauges renders a Metrics block as /metrics gauge samples, shared by
// the coordinator and standalone tablet servers.
func (m *Metrics) gauges() []telemetry.Sample {
	return []telemetry.Sample{
		{Name: "scans_in_flight", Help: "Tablet scan passes currently executing.", Value: m.ScansInFlight.Load()},
		{Name: "max_scans_in_flight", Help: "High-water mark of concurrent tablet passes.", Value: m.MaxScansInFlight.Load()},
		{Name: "entries_buffered", Help: "Entries held across scan pipelines.", Value: m.EntriesBuffered.Load()},
		{Name: "max_entries_buffered", Help: "High-water mark of buffered entries.", Value: m.MaxEntriesBuffered.Load()},
	}
}

// MiniCluster is the embedded cluster: the metadata authority (tables,
// splits, iterator settings, tablet→server assignment) plus the client
// router that moves all data-plane traffic over the transport.
type MiniCluster struct {
	cfg     Config
	clock   atomic.Int64
	seed    atomic.Int64
	Metrics Metrics

	// stats is the process-global counter set: every counting site in
	// this process, the hosted tablets included, adds to it. Read it
	// through Counts, which adds the durable read-path counters.
	stats telemetry.StatSet

	// tel tracks the coordinator's kernel queries and process-global
	// latency histograms; telSrv is the optional HTTP endpoint
	// (Config.MetricsAddr) exposing them.
	tel    *telemetry.Registry
	telSrv *telemetry.Server

	// sched is the coordinator's query scheduler: admission slots,
	// per-tenant fair queuing of tablet passes, and per-query budgets.
	// folds registers queued compatible tablet scans for shared-scan
	// folding; nil unless Config.MaxConcurrentPasses > 0.
	sched *sched.Scheduler
	folds *sched.Folder[*foldSub]

	// tr carries the data plane; endpoints[i] is the dialable address
	// of tablet server i. locals holds the servers this cluster
	// launched (empty when Config.Servers points at external
	// processes).
	tr        transport.Transport
	endpoints []string
	locals    []transport.Server

	mu     sync.RWMutex
	tables map[string]*tableMeta

	// dir is the durable data directory; nil for in-memory clusters.
	dir *store.Dir

	// failWrites > 0 makes the next N write RPCs fail, for testing the
	// BatchWriter retry path.
	failWrites atomic.Int64
}

// tabletRef is the coordinator's handle to one tablet: its hosted row
// range, the server that owns it, and — for locally launched servers —
// the tablet state itself (nil when the tablet lives in an external
// process).
type tabletRef struct {
	tab        *tablet.Tablet
	server     int
	start, end string // hosted row range [start, end); "" = unbounded
	endpoint   string // transport address of the owning tablet server
}

type tableMeta struct {
	name string

	// sched is the table's background compaction scheduler (durable
	// clusters with Config.MaxRunsPerTablet > 0; nil otherwise). Set
	// once before the table becomes visible, stopped at table delete
	// and cluster close.
	sched *tablet.Scheduler

	mu      sync.RWMutex
	splits  []string // sorted row boundaries
	tablets []*tabletRef
	iters   map[Scope][]iterator.Setting
}

// external reports whether the tablet servers are external processes.
func (mc *MiniCluster) external() bool { return len(mc.cfg.Servers) > 0 }

// NewMiniCluster starts an embedded in-memory cluster. For a durable
// cluster (Config.DataDir set) use OpenMiniCluster; NewMiniCluster
// panics on I/O errors, which in-process in-memory configurations
// cannot hit.
func NewMiniCluster(cfg Config) *MiniCluster {
	mc, err := OpenMiniCluster(cfg)
	if err != nil {
		panic(fmt.Sprintf("accumulo: NewMiniCluster: %v", err))
	}
	return mc
}

// OpenMiniCluster starts an embedded cluster. With cfg.DataDir set it
// opens (or initialises) the durable data directory and recovers every
// table: splits and iterator settings from the manifest, on-disk runs
// from the recorded rfiles, and unflushed writes by WAL replay. The
// logical timestamp clock resumes past every recovered timestamp, so
// versioning semantics survive restarts.
func OpenMiniCluster(cfg Config) (*MiniCluster, error) {
	mc := &MiniCluster{cfg: cfg.withDefaults(), tables: map[string]*tableMeta{}}
	mc.seed.Store(42)
	mc.sched = sched.New(sched.Config{
		MaxConcurrentQueries: cfg.MaxConcurrentQueries,
		MaxQueuedQueries:     cfg.MaxQueuedQueries,
		MaxConcurrentPasses:  cfg.MaxConcurrentPasses,
		TenantWeights:        cfg.TenantWeights,
		ScanEntryBudget:      cfg.ScanEntryBudget,
		WriteByteBudget:      cfg.WriteByteBudget,
	})
	if mc.sched.PassLimited() {
		mc.folds = sched.NewFolder[*foldSub]()
	}
	mc.tel = telemetry.NewRegistry(telemetry.Options{
		Host:               "coordinator",
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		SlowQueryLog:       cfg.SlowQueryLog,
	})
	if err := mc.openTransport(); err != nil {
		return nil, err
	}
	if cfg.MetricsAddr != "" {
		srv, err := telemetry.Serve(cfg.MetricsAddr, telemetry.ServerConfig{
			Registry: mc.tel,
			Counts:   mc.Counts,
			Gauges:   mc.gauges,
		})
		if err != nil {
			mc.closeTransport()
			return nil, err
		}
		mc.telSrv = srv
	}
	if cfg.DataDir == "" {
		return mc, nil
	}
	dir, err := store.Open(cfg.DataDir, store.Options{
		NoSync:                  cfg.NoSync,
		BlockCacheBytes:         cfg.BlockCacheBytes,
		CacheTenantSoftCapBytes: cfg.CacheTenantSoftCapBytes,
		BloomFilterBits:         cfg.BloomFilterBits,
		ColQBloomBits:           cfg.ColQBloomBits,
		WALSyncObserver:         func(d time.Duration) { mc.tel.WALSync.Observe(d) },
	})
	if err != nil {
		mc.Close()
		return nil, err
	}
	mc.dir = dir
	clockFloor := dir.Clock()
	for _, ti := range dir.Tables() {
		meta := &tableMeta{
			name:   ti.Name,
			splits: ti.Splits,
			iters:  map[Scope][]iterator.Setting{},
		}
		for scopeName, settings := range ti.Iters {
			if s, ok := scopeFromName(scopeName); ok {
				meta.iters[s] = settings
			}
		}
		for i, tbi := range ti.Tablets {
			ts, runs, replay, maxTs, err := dir.OpenTablet(ti.Name, tbi)
			if err != nil {
				mc.crash()
				return nil, fmt.Errorf("accumulo: recovering table %q: %w", ti.Name, err)
			}
			if maxTs > clockFloor {
				clockFloor = maxTs
			}
			tab := tablet.NewDurable(tbi.Start, tbi.End, mc.cfg.MemLimit, mc.seed.Add(1), ts, runs, replay)
			mc.initTablet(tab, meta)
			server := i % mc.cfg.TabletServers
			meta.tablets = append(meta.tablets, &tabletRef{
				tab:      tab,
				server:   server,
				start:    tbi.Start,
				end:      tbi.End,
				endpoint: mc.endpoints[server],
			})
		}
		mc.startScheduler(meta)
		mc.tables[ti.Name] = meta
	}
	mc.clock.Store(clockFloor)
	dir.SetClock(func() int64 { return mc.clock.Load() })
	return mc, nil
}

// openTransport brings up the data plane: the transport implementation
// plus — unless Config.Servers points at external processes — one
// listening endpoint per tablet server, all serving the shared cluster
// handler.
func (mc *MiniCluster) openTransport() error {
	if mc.external() {
		if mc.cfg.DataDir != "" {
			return fmt.Errorf("accumulo: external tablet servers (Config.Servers) do not support DataDir")
		}
		if mc.cfg.Transport == TransportInProc {
			return fmt.Errorf("accumulo: external tablet servers require the tcp transport")
		}
		mc.tr = transport.NewTCP()
		mc.endpoints = append([]string(nil), mc.cfg.Servers...)
		// Stamp-clock handshake, which doubles as failing fast on
		// unreachable servers. Phase 1 learns every server's current
		// clock; phase 2 assigns each a distinct band strictly above the
		// highest band any of them (or a previous coordinator) has used,
		// so no two servers — across restarts and reorderings — can ever
		// stamp the same timestamp. Band 0 stays with this coordinator's
		// client-stamped writes.
		ping := func(ep string, req []byte) (int64, error) {
			conn, err := mc.tr.Dial(ep)
			if err != nil {
				return 0, err
			}
			resp, err := conn.Call(opPing, req)
			if err != nil {
				return 0, err
			}
			clock, _, err := readUint(resp)
			return int64(clock), err
		}
		var maxBand int64
		for _, ep := range mc.endpoints {
			clock, err := ping(ep, nil)
			if err != nil {
				mc.tr.Close()
				return fmt.Errorf("accumulo: tablet server %s: %w", ep, err)
			}
			if band := clock >> 32; band > maxBand {
				maxBand = band
			}
		}
		for i, ep := range mc.endpoints {
			band := maxBand + 1 + int64(i)
			if _, err := ping(ep, binary.AppendUvarint(nil, uint64(band))); err != nil {
				mc.tr.Close()
				return fmt.Errorf("accumulo: tablet server %s: %w", ep, err)
			}
		}
		return nil
	}
	switch mc.cfg.Transport {
	case "", TransportInProc:
		mc.tr = transport.NewInProc()
	case TransportTCP:
		mc.tr = transport.NewTCP()
	default:
		return fmt.Errorf("accumulo: unknown transport %q", mc.cfg.Transport)
	}
	h := &clusterHandler{mc: mc}
	for i := 0; i < mc.cfg.TabletServers; i++ {
		srv, err := mc.tr.Listen("", h)
		if err != nil {
			mc.closeTransport()
			return err
		}
		mc.locals = append(mc.locals, srv)
		mc.endpoints = append(mc.endpoints, srv.Addr())
	}
	return nil
}

// closeTransport shuts the data plane down: local tablet servers stop
// serving (waiting out in-flight passes), then the transport drops its
// pooled connections.
func (mc *MiniCluster) closeTransport() error {
	var firstErr error
	for _, srv := range mc.locals {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if mc.tr != nil {
		if err := mc.tr.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// scanTopology snapshots the routing topology shipped with scan
// requests to external tablet servers (nil otherwise — locally launched
// servers resolve against the shared metadata).
func (mc *MiniCluster) scanTopology() *topology {
	if !mc.external() {
		return nil
	}
	mc.mu.RLock()
	metas := make([]*tableMeta, 0, len(mc.tables))
	for _, meta := range mc.tables {
		metas = append(metas, meta)
	}
	mc.mu.RUnlock()
	topo := &topology{wireBatch: mc.cfg.WireBatch, scanPar: mc.cfg.ScanParallelism}
	for _, meta := range metas {
		meta.mu.RLock()
		tt := topoTable{
			name: meta.name,
			scan: append([]iterator.Setting(nil), meta.iters[ScanScope]...),
		}
		for _, tr := range meta.tablets {
			tt.tablets = append(tt.tablets, topoTablet{start: tr.start, end: tr.end, endpoint: tr.endpoint})
		}
		meta.mu.RUnlock()
		topo.tables = append(topo.tables, tt)
	}
	return topo
}

// initTablet wires a freshly created tablet into the cluster's
// write-path plumbing: the byte-based flush trigger, the cluster's
// counter set, and a flush hook that kicks the table's
// compaction scheduler so background freezes feed size-tiered merging
// the same way explicit flushes do. meta.sched is read at notify time —
// the scheduler starts after tablet creation but before the table is
// visible to writers.
func (mc *MiniCluster) initTablet(tab *tablet.Tablet, meta *tableMeta) {
	tab.SetFlushBytes(mc.cfg.flushBytes())
	tab.SetMaxFrozen(mc.cfg.MemtableMaxFrozen)
	tab.SetStats(&mc.stats)
	tab.SetFlushNotify(func() {
		if meta.sched != nil {
			meta.sched.Kick()
		}
	})
}

// startScheduler launches the table's background compaction scheduler
// when the cluster is durable and Config.MaxRunsPerTablet asks for one.
// Must run before the table becomes visible to other goroutines, so
// meta.sched is immutable afterwards.
func (mc *MiniCluster) startScheduler(meta *tableMeta) {
	if mc.dir == nil || mc.cfg.MaxRunsPerTablet <= 0 {
		return
	}
	meta.sched = tablet.StartScheduler(tablet.SchedulerConfig{
		MaxRuns: mc.cfg.MaxRunsPerTablet,
		Tablets: func() []*tablet.Tablet {
			meta.mu.RLock()
			defer meta.mu.RUnlock()
			out := make([]*tablet.Tablet, len(meta.tablets))
			for i, tr := range meta.tablets {
				out[i] = tr.tab
			}
			return out
		},
		Stack: func() func(iterator.SKVI) (iterator.SKVI, error) {
			return mc.compactionStack(meta, MajcScope)
		},
		OnCompact: func(*tablet.Tablet) { mc.stats.Add(telemetry.MajorCompactions, 1) },
		OnError:   func(error) { mc.stats.Add(telemetry.MajorCompactionErrors, 1) },
	})
}

// StartKernelQuery admits one kernel query through the scheduler and
// starts its telemetry record. tenant "" resolves to
// Config.DefaultTenant. On admission the query carries its tenant label
// (shipped in every scan and write request it issues) and, when the
// cluster configures budgets, a per-query budget enforced at the scan
// and write counting sites. The returned finish releases the admission
// slot and finalises the query — call it exactly once, with the query's
// terminal error. When the admission queue is full the query never
// starts: the error is a *sched.AdmissionError and finish is nil.
func (mc *MiniCluster) StartKernelQuery(kernel, tenant string) (*telemetry.Query, func(error), error) {
	if tenant == "" {
		tenant = mc.cfg.DefaultTenant
	}
	if tenant == "" {
		tenant = "default"
	}
	release, wait, err := mc.sched.Admit(tenant)
	if err != nil {
		return nil, nil, err
	}
	q := mc.tel.StartQuery(kernel).WithTenant(tenant)
	if wait > 0 {
		mc.stats.Count(q, telemetry.QueueWaitNanos, int64(wait))
		mc.tel.QueueWait.Observe(wait)
	}
	if b := mc.sched.NewBudget(tenant); b != nil {
		q.SetBudget(b)
	}
	var once sync.Once
	finish := func(err error) {
		once.Do(func() {
			q.Finish(err)
			release()
		})
	}
	return q, finish, nil
}

// Scheduler exposes the cluster's query scheduler (never nil) — tests
// and monitoring read its queue gauges.
func (mc *MiniCluster) Scheduler() *sched.Scheduler { return mc.sched }

// Telemetry returns the coordinator's telemetry registry: every kernel
// query it has run (with per-query counters, latency histograms, and
// span trees) plus the process-global latency histograms.
func (mc *MiniCluster) Telemetry() *telemetry.Registry { return mc.tel }

// TelemetryAddr returns the bound address of the telemetry HTTP
// endpoint, or "" when Config.MetricsAddr did not enable one.
func (mc *MiniCluster) TelemetryAddr() string {
	if mc.telSrv == nil {
		return ""
	}
	return mc.telSrv.Addr()
}

// Counts snapshots the process-global counters: the cluster's counter
// set plus, for a durable cluster, the read-path counters of its data
// directory.
func (mc *MiniCluster) Counts() telemetry.Counts {
	k := mc.stats.Counts()
	mc.dir.AddCounts(&k)
	return k
}

// Count records n events of c in the cluster's global counters and, when
// q is non-nil, in q — for counting sites outside this package.
func (mc *MiniCluster) Count(q *telemetry.Query, c telemetry.Counter, n int64) {
	mc.stats.Count(q, c, n)
}

// gauges snapshots the coordinator's /metrics gauges: the scan-pipeline
// gauges plus the scheduler's queue depths.
func (mc *MiniCluster) gauges() []telemetry.Sample {
	return append(mc.Metrics.gauges(),
		telemetry.Sample{Name: "queries_running", Help: "Kernel queries holding admission slots.", Value: int64(mc.sched.QueriesRunning())},
		telemetry.Sample{Name: "queries_queued", Help: "Kernel queries waiting for admission.", Value: int64(mc.sched.QueriesQueued())},
		telemetry.Sample{Name: "passes_queued", Help: "Tablet scan passes waiting in tenant queues.", Value: int64(mc.sched.PassesQueued())},
	)
}

// Close shuts the cluster down cleanly. For a durable cluster every
// tablet's memtable is flushed to an rfile (applying the minc stack,
// and reclaiming its WAL segments), then the manifest is persisted with
// the current logical clock and every WAL is synced and closed — a
// reopen after Close recovers purely from the manifest and rfiles, WAL
// replay being the crash path. In every mode Close then stops the
// locally launched tablet servers and releases the transport (listeners
// and pooled connections), so a TCP cluster must be Closed to free its
// sockets. Close is idempotent; an in-memory in-process cluster that is
// never Closed leaks nothing beyond its heap.
func (mc *MiniCluster) Close() error {
	var firstErr error
	if mc.telSrv != nil {
		mc.telSrv.Close()
		mc.telSrv = nil
	}
	if mc.dir != nil {
		// Stop every compaction scheduler first: Stop returns only once
		// any in-flight scheduled compaction has finished, so nothing
		// races the final flushes or writes after the directory closes.
		for _, s := range mc.schedulers() {
			s.Stop()
		}
		ops := &TableOperations{mc: mc}
		for _, name := range ops.List() {
			if err := ops.Flush(name); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if err := mc.dir.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		mc.dir = nil
	}
	if err := mc.closeTransport(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// schedulers lists the tables' background compaction schedulers.
func (mc *MiniCluster) schedulers() []*tablet.Scheduler {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	var out []*tablet.Scheduler
	for _, meta := range mc.tables {
		if meta.sched != nil {
			out = append(out, meta.sched)
		}
	}
	return out
}

// crash abandons the cluster as a killed process would: compaction
// schedulers stop, the data directory stops taking rfile writes and
// manifest commits (so background memtable flushes fail instead of
// reaching the disk), its lock is released, and the transport and
// telemetry endpoint close. Nothing is flushed or synced. Failed
// recovery uses it, and crash-recovery tests stand it in for a kill;
// the caller must have stopped writing.
func (mc *MiniCluster) crash() {
	for _, s := range mc.schedulers() {
		s.Stop()
	}
	if mc.dir != nil {
		mc.dir.Abandon()
	}
	if mc.telSrv != nil {
		mc.telSrv.Close()
	}
	mc.closeTransport()
}

// persistIters writes a table's iterator settings to the manifest in
// durable mode. Caller holds meta.mu (read suffices).
func (mc *MiniCluster) persistIters(meta *tableMeta) error {
	if mc.dir == nil {
		return nil
	}
	out := map[string][]iterator.Setting{}
	for s, list := range meta.iters {
		out[scopeNames[s]] = list
	}
	return mc.dir.SetIters(meta.name, out)
}

// Connector returns a client connection, as Instance.getConnector would.
func (mc *MiniCluster) Connector() *Connector { return &Connector{mc: mc} }

// nextTs returns a fresh logical timestamp.
func (mc *MiniCluster) nextTs() int64 { return mc.clock.Add(1) }

// ErrTransient marks a write failure that happened before any tablet
// absorbed entries, so the whole batch may safely be retried. That
// covers failure injection and tablet servers that are unreachable
// (transport.ErrUnavailable — the request was never sent). Failures
// past that point (e.g. a WAL I/O error on one tablet of several, or a
// connection dying after the request went out) are NOT transient: some
// tablet may already hold the entries, and a retry would re-stamp and
// double them under sum combiners.
var ErrTransient = errors.New("transient write failure")

// InjectWriteFailures makes the next n write RPCs return a transient
// error; used by tests and failure-injection benches.
func (mc *MiniCluster) InjectWriteFailures(n int) { mc.failWrites.Store(int64(n)) }

func (mc *MiniCluster) getTable(name string) (*tableMeta, error) {
	mc.mu.RLock()
	defer mc.mu.RUnlock()
	t, ok := mc.tables[name]
	if !ok {
		return nil, fmt.Errorf("accumulo: table %q does not exist", name)
	}
	return t, nil
}

// tabletForRow locates the tablet owning row.
func (t *tableMeta) tabletForRow(row string) *tabletRef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx := sort.SearchStrings(t.splits, row)
	// splits[i] is the first row of tablet i+1; row == split belongs right.
	if idx < len(t.splits) && t.splits[idx] == row {
		idx++
	}
	return t.tablets[idx]
}

// tabletsOverlapping returns the tablets whose row ranges intersect rng.
func (t *tableMeta) tabletsOverlapping(rng skv.Range) []*tabletRef {
	hit, _ := t.tabletsOverlappingRanges([]skv.Range{rng})
	return hit
}

// tabletsOverlappingRanges returns the tablets whose row ranges
// intersect any of the given ranges, plus the count of tablets the
// ranges pruned — the client half of range push-down.
func (t *tableMeta) tabletsOverlappingRanges(ranges []skv.Range) (hit []*tabletRef, pruned int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, tr := range t.tablets {
		band := skv.RowRange(tr.start, tr.end)
		overlaps := false
		for _, rng := range ranges {
			if !rng.Clip(band).IsEmpty() {
				overlaps = true
				break
			}
		}
		if overlaps {
			hit = append(hit, tr)
		} else {
			pruned++
		}
	}
	return hit, pruned
}

// scopeStack returns a copy of the iterator settings for a scope.
func (t *tableMeta) scopeStack(s Scope) []iterator.Setting {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]iterator.Setting(nil), t.iters[s]...)
}

// write is the client-side ingest path: entries are stamped with fresh
// timestamps, routed to their tablets, and shipped to each tablet's
// server over the transport as one codec-serialised batch per tablet.
// q (nil = untraced) receives the batch's per-query wire counters.
func (mc *MiniCluster) write(table string, entries []skv.Entry, q *telemetry.Query) error {
	meta, err := mc.getTable(table)
	if err != nil {
		return err
	}
	if mc.failWrites.Load() > 0 && mc.failWrites.Add(-1) >= 0 {
		// Fails before any tablet absorbed entries, so a retry is safe.
		return fmt.Errorf("accumulo: %w", ErrTransient)
	}
	start := time.Now()
	defer func() { mc.tel.WriteBatch.Observe(time.Since(start)) }()
	// Group by tablet.
	groups := map[*tabletRef][]skv.Entry{}
	for _, e := range entries {
		e.K.Ts = mc.nextTs()
		tr := meta.tabletForRow(e.K.Row)
		groups[tr] = append(groups[tr], e)
	}
	wrote := false
	for tr, batch := range groups {
		wire := skv.EncodeBatch(batch)
		// Budget enforcement shares the wire-byte counting site: the charge
		// happens before the batch ships, so an over-budget query fails
		// without the write landing.
		if err := q.ChargeWriteBytes(int64(len(wire))); err != nil {
			return fmt.Errorf("accumulo: %w", err)
		}
		mc.stats.Count(q, telemetry.WireBytes, int64(len(wire)))
		mc.stats.Count(q, telemetry.WriteWireBytes, int64(len(wire)))
		mc.stats.Count(q, telemetry.RPCs, 1)
		conn, err := mc.tr.Dial(tr.endpoint)
		if err == nil {
			_, err = conn.Call(opWrite, encodeWriteReq(writeReq{
				table: table, start: tr.start, end: tr.end, batch: wire,
				traceID: uint64(q.Trace()), tenant: q.Tenant(),
			}))
		}
		if err != nil {
			if !wrote && errors.Is(err, transport.ErrUnavailable) {
				// The server was unreachable before any tablet absorbed
				// entries: the whole batch is retriable.
				return fmt.Errorf("accumulo: tablet server %s: %w (%w)", tr.endpoint, ErrTransient, err)
			}
			return fmt.Errorf("accumulo: tablet write: %w", err)
		}
		wrote = true
		mc.stats.Count(q, telemetry.EntriesWritten, int64(len(batch)))
		// Auto-minc applies the minc stack when the memtable spills; the
		// tablet handles the spill itself with a nil stack, so re-apply
		// the configured minc stack lazily at the next compaction. To
		// keep combiner semantics exact we rely on scan/majc stacks.
	}
	if meta.sched != nil {
		// Prompt the compaction scheduler: an auto-minc above may have
		// pushed a tablet past its run threshold.
		meta.sched.Kick()
		mc.stats.Count(q, telemetry.CompactionKicks, 1)
	}
	return nil
}

// writeEntries implements scanBackend for the coordinator: server-side
// iterators (RemoteWrite) write through the same routed path clients
// use.
func (mc *MiniCluster) writeEntries(table string, entries []skv.Entry, q *telemetry.Query) error {
	return mc.write(table, entries, q)
}

// scan executes a range scan server-side and collects the whole result —
// the materialising convenience over openStream, kept for callers whose
// results are small (monitoring entries, vectors, admin copies).
// Streaming consumers use Scanner.Stream / EntryStream directly.
func (mc *MiniCluster) scan(table string, rng skv.Range, extra []iterator.Setting) ([]skv.Entry, error) {
	s, err := mc.openStream(table, []skv.Range{rng}, nil, extra, traceCtx{})
	if err != nil {
		return nil, err
	}
	return s.Collect()
}

// compactionStack adapts a scope's settings to the tablet compaction
// callback signature. The stack's env is released as soon as the
// compaction drains the stack (envClosingIter), so remote streams
// opened by compaction-scope iterators do not linger until GC.
func (mc *MiniCluster) compactionStack(meta *tableMeta, scope Scope) func(iterator.SKVI) (iterator.SKVI, error) {
	settings := meta.scopeStack(scope)
	if len(settings) == 0 {
		return nil
	}
	return func(src iterator.SKVI) (iterator.SKVI, error) {
		env := &scanEnv{backend: mc, tc: traceCtx{nested: true}}
		stack, err := iterator.BuildStack(src, settings, env)
		if err != nil {
			env.close()
			return nil, err
		}
		return &envClosingIter{SKVI: stack, env: env}, nil
	}
}

// envClosingIter wraps a stack built over a scanEnv and closes the env
// the moment the stack reports exhaustion — the only end-of-use signal
// the compaction callback contract offers. A stack abandoned mid-drain
// (compaction error) is still reclaimed by the stream finalizers.
type envClosingIter struct {
	iterator.SKVI
	env *scanEnv
}

func (c *envClosingIter) HasTop() bool {
	has := c.SKVI.HasTop()
	if !has && c.env != nil {
		c.env.close()
		c.env = nil
	}
	return has
}
