package accumulo

// This file implements the standalone tablet server — the serving core
// of `graphulo serve`. A TabletServer is a self-sufficient process
// endpoint: a coordinator (MiniCluster with Config.Servers) assigns it
// tablets over the wire, routes write batches to it, and opens scans on
// it; the scan requests carry the merged iterator stack plus a routing
// topology, so server-side iterators running here reach their operand
// tables on peer servers — and write their results back — without any
// shared metadata service. That makes TableMult's tablet→tablet
// partial-product flow cross real process (or machine) boundaries, as
// in the paper's Accumulo deployment.
//
// Standalone servers host in-memory tablets only and speak the minimal
// control plane (assign/drop); durability and tablet-level admin
// (splits, compactions) remain coordinator-local features.

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// TabletServer is a standalone tablet-server endpoint.
type TabletServer struct {
	tr       *transport.TCP
	srv      transport.Server
	memLimit int
	clock    atomic.Int64
	seed     atomic.Int64
	metrics  Metrics
	stats    telemetry.StatSet // process-global counters
	tel      *telemetry.Registry
	telSrv   *telemetry.Server

	mu     sync.RWMutex
	tables map[string][]*hostedTablet
}

type hostedTablet struct {
	start, end string
	tab        *tablet.Tablet
}

// ListenAndServeTablets starts a standalone tablet server on addr
// (host:port; an empty addr picks an ephemeral loopback port). memLimit
// bounds each hosted tablet's memtable (0 selects the default, 1<<14).
// The server runs until Close.
func ListenAndServeTablets(addr string, memLimit int) (*TabletServer, error) {
	if memLimit <= 0 {
		memLimit = 1 << 14
	}
	s := &TabletServer{
		tr:       transport.NewTCP(),
		memLimit: memLimit,
		tables:   map[string][]*hostedTablet{},
	}
	s.seed.Store(42)
	srv, err := s.tr.Listen(addr, &daemonHandler{s: s})
	if err != nil {
		s.tr.Close()
		return nil, err
	}
	s.srv = srv
	// The registry labels this server's pass spans with its dialable
	// address, so a cross-process trace shows where each pass ran.
	s.tel = telemetry.NewRegistry(telemetry.Options{Host: srv.Addr()})
	// The stamp clock starts at zero; a coordinator raises it into a
	// dedicated band (band<<32) through the opPing handshake before it
	// routes any traffic here. Bands keep the entries this server stamps
	// (RemoteWrite results) from ever colliding with another server's
	// stamps on the same cell — exact full-key duplicates are
	// deduplicated on the read path — and the coordinator keeps band 0
	// for client-stamped writes. A band holds 2^32 stamps; a server that
	// exhausts one bleeds into the next band's space, which a
	// coordinator handshake later rises above.
	return s, nil
}

// Addr returns the server's dialable address.
func (s *TabletServer) Addr() string { return s.srv.Addr() }

// Telemetry returns the server's telemetry registry: the passes it has
// served and its process-global latency histograms.
func (s *TabletServer) Telemetry() *telemetry.Registry { return s.tel }

// StartTelemetry starts the server's telemetry HTTP endpoint on addr
// (/metrics, /queries, /debug/pprof) and returns its bound address.
func (s *TabletServer) StartTelemetry(addr string) (string, error) {
	srv, err := telemetry.Serve(addr, telemetry.ServerConfig{
		Registry: s.tel,
		Counts:   s.stats.Counts,
		Gauges:   s.metrics.gauges,
	})
	if err != nil {
		return "", err
	}
	s.telSrv = srv
	return srv.Addr(), nil
}

// Close stops serving: in-flight scan passes observe send failures, and
// Close returns once the endpoint's connections have drained.
func (s *TabletServer) Close() error {
	if s.telSrv != nil {
		s.telSrv.Close()
	}
	err := s.srv.Close()
	if cerr := s.tr.Close(); err == nil {
		err = cerr
	}
	return err
}

// resolve locates a hosted tablet by its exact row range.
func (s *TabletServer) resolve(table, start, end string) (*tablet.Tablet, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, ht := range s.tables[table] {
		if ht.start == start && ht.end == end {
			return ht.tab, nil
		}
	}
	return nil, fmt.Errorf("accumulo: tablet [%q,%q) of table %q is not hosted here", start, end, table)
}

// assign creates an empty hosted tablet. Assignment happens at table
// creation, so an existing tablet with the same range is replaced: the
// coordinator that just created the table expects it empty, and stale
// data from an earlier coordinator run must not leak into it.
func (s *TabletServer) assign(table, start, end string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := &hostedTablet{
		start: start, end: end,
		tab: tablet.New(start, end, s.memLimit, s.seed.Add(1)),
	}
	fresh.tab.SetFlushBytes(64 << 20)
	fresh.tab.SetStats(&s.stats)
	for i, ht := range s.tables[table] {
		if ht.start == start && ht.end == end {
			s.tables[table][i] = fresh
			return
		}
	}
	s.tables[table] = append(s.tables[table], fresh)
}

// drop releases every hosted tablet of a table.
func (s *TabletServer) drop(table string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.tables, table)
}

// daemonHandler adapts the TabletServer to transport.Handler.
type daemonHandler struct {
	s *TabletServer
}

// Call implements transport.Handler.
func (h *daemonHandler) Call(op byte, req []byte) ([]byte, error) {
	switch op {
	case opPing:
		// Stamp-clock handshake (see the opPing doc in wire.go): an
		// optional uvarint band raises the clock into band<<32; the
		// response is the current clock, which the coordinator uses to
		// pick bands above everything already stamped.
		if len(req) > 0 {
			band, _, err := readUint(req)
			if err != nil {
				return nil, err
			}
			atomicMax(&h.s.clock, int64(band)<<32)
		}
		return binary.AppendUvarint(nil, uint64(h.s.clock.Load())), nil
	case opAssign:
		ar, err := decodeAssignReq(req)
		if err != nil {
			return nil, err
		}
		h.s.assign(ar.table, ar.start, ar.end)
		return nil, nil
	case opDrop:
		table, _, err := readStr(req)
		if err != nil {
			return nil, err
		}
		h.s.drop(table)
		return nil, nil
	case opWrite:
		wr, err := decodeWriteReq(req)
		if err != nil {
			return nil, err
		}
		entries, err := skv.DecodeBatch(wr.batch)
		if err != nil {
			return nil, fmt.Errorf("accumulo: wire corruption: %w", err)
		}
		tab, err := h.s.resolve(wr.table, wr.start, wr.end)
		if err != nil {
			return nil, err
		}
		if err := tab.Write(entries); err != nil {
			return nil, fmt.Errorf("accumulo: tablet write: %w", err)
		}
		h.s.stats.Add(telemetry.EntriesWritten, int64(len(entries)))
		return nil, nil
	default:
		return nil, fmt.Errorf("accumulo: unknown unary op %d", op)
	}
}

// Stream implements transport.Handler: opScan runs the request's merged
// stack over the hosted tablet, with an env that routes server-side
// iterator traffic by the request's topology.
func (h *daemonHandler) Stream(op byte, req []byte, send func([]byte) error) error {
	if op != opScan {
		return fmt.Errorf("accumulo: unknown streaming op %d", op)
	}
	sr, err := decodeScanReq(req)
	if err != nil {
		return err
	}
	tab, err := h.s.resolve(sr.table, sr.start, sr.end)
	if err != nil {
		return err
	}
	h.s.metrics.noteScanStart()
	defer h.s.metrics.ScansInFlight.Add(-1)
	h.s.stats.Add(telemetry.TabletScans, 1)
	// The pass is registered: a standalone server's /queries listing is
	// the passes it served, each carrying the originating trace ID.
	pass := h.s.tel.StartRemote(telemetry.TraceID(sr.traceID), sr.spanID, passName(sr)).WithTenant(sr.tenant)
	env := &scanEnv{
		backend: &daemonBackend{s: h.s, topo: sr.topo, topoRaw: sr.topoRaw, tenant: sr.tenant},
		tc:      traceCtx{q: pass, nested: true},
	}
	defer env.close()
	err = serveScan(tab.SnapshotForFamilies(sr.tenant, sr.families), sr.ranges, sr.settings, env, sr.batch, pass, send)
	finishPass(pass, h.s.tel, err, send)
	return err
}

// daemonBackend implements scanBackend against the routing topology a
// scan request carried: nested scans and remote writes dial peer
// endpoints (including this server itself) over the transport, with the
// same topology passed through so arbitrarily nested kernels keep
// routing.
type daemonBackend struct {
	s       *TabletServer
	topo    *topology
	topoRaw []byte // encoded form of topo, passed through verbatim
	tenant  string // originating query's tenant, carried into nested requests
}

func (b *daemonBackend) openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting, tc traceCtx) (*EntryStream, error) {
	tt := b.topo.find(table)
	if tt == nil {
		return nil, fmt.Errorf("accumulo: table %q is not in the scan's routing topology", table)
	}
	settings := append(append([]iterator.Setting(nil), tt.scan...), extra...)
	batch := b.topo.wireBatch
	if batch <= 0 {
		batch = 4096
	}
	b.s.stats.Count(tc.q, telemetry.ScansStarted, 1)
	ranges, empty := normalizeRanges(ranges)
	if empty {
		return startStream(&b.s.metrics, 1, 0, nil), nil
	}
	var targets []topoTablet
	pruned := 0
	for _, tb := range tt.tablets {
		if len(clipRanges(ranges, tb.start, tb.end)) > 0 {
			targets = append(targets, tb)
		} else {
			pruned++
		}
	}
	b.s.stats.Count(tc.q, telemetry.TabletsPrunedByRange, int64(pruned))
	q := tc.q
	span := q.StartSpan(tc.parent, "scan "+table)
	// Nested trailers fold into this pass only; this server's globals
	// count its own work, and the pass's trailer carries the aggregate
	// up to the query's origin.
	onTrailer := func(t *telemetry.Trailer) error { q.FoldTrailer(t); return nil }
	s := startStream(&b.s.metrics, b.topo.scanPar, len(targets),
		func(i int, out *tabletScan, done <-chan struct{}) {
			tb := targets[i]
			req := encodeScanReq(scanReq{
				table: table, start: tb.start, end: tb.end,
				ranges: clipRanges(ranges, tb.start, tb.end), settings: settings,
				batch:   batch,
				traceID: uint64(q.Trace()), spanID: span.ID(),
				tenant:   b.tenant,
				families: families,
				topoRaw:  b.topoRaw,
			})
			relayScan(b.s.tr, &b.s.metrics, &b.s.stats, q, tb.endpoint, req, out, done, onTrailer)
		})
	s.onDone = span.End
	return s, nil
}

// globals implements scanBackend.
func (b *daemonBackend) globals() *telemetry.StatSet { return &b.s.stats }

func (b *daemonBackend) writeEntries(table string, entries []skv.Entry, q *telemetry.Query) error {
	tt := b.topo.find(table)
	if tt == nil {
		return fmt.Errorf("accumulo: table %q is not in the scan's routing topology", table)
	}
	start := time.Now()
	defer func() { b.s.tel.WriteBatch.Observe(time.Since(start)) }()
	groups := map[int][]skv.Entry{}
	for _, e := range entries {
		e.K.Ts = b.s.clock.Add(1)
		idx := tt.route(e.K.Row)
		groups[idx] = append(groups[idx], e)
	}
	for idx, batch := range groups {
		tb := tt.tablets[idx]
		wire := skv.EncodeBatch(batch)
		b.s.stats.Count(q, telemetry.WireBytes, int64(len(wire)))
		b.s.stats.Count(q, telemetry.WriteWireBytes, int64(len(wire)))
		b.s.stats.Count(q, telemetry.RPCs, 1)
		conn, err := b.s.tr.Dial(tb.endpoint)
		if err == nil {
			_, err = conn.Call(opWrite, encodeWriteReq(writeReq{
				table: table, start: tb.start, end: tb.end, batch: wire,
				traceID: uint64(q.Trace()), tenant: b.tenant,
			}))
		}
		if err != nil {
			return fmt.Errorf("accumulo: remote write to %s: %w", tb.endpoint, err)
		}
		// The receiving server counts the entries in its global set; the
		// query's twin is counted here, at the send.
		q.Add(telemetry.EntriesWritten, int64(len(batch)))
	}
	return nil
}
