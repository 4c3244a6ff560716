package accumulo

// This file is the server half of the cluster's data plane: the
// transport handler that MiniCluster-launched tablet servers run, and
// serveScan, the scan executor shared with the standalone tablet server
// (daemon.go). Every write batch and every scan — client-issued or
// opened by a server-side iterator — arrives here through the
// transport, whether that meant a channel hand-off or a TCP socket.

import (
	"encoding/binary"
	"fmt"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/tablet"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// clusterHandler serves the tablet-server ops for servers launched by a
// MiniCluster. All of the cluster's servers share the coordinator's
// metadata in-process — what distributes the work across endpoints is
// the router always dialing the endpoint that owns the tablet, so scan
// stacks and write ingestion run on the connection's server goroutines
// after genuinely crossing the wire.
type clusterHandler struct {
	mc *MiniCluster
}

// resolveTablet locates a hosted tablet by its exact row range. A miss
// means the tablet was split or retired after the client snapshotted its
// routing — surfacing an error is strictly better than silently serving
// a different range.
func (mc *MiniCluster) resolveTablet(table, start, end string) (*tablet.Tablet, error) {
	meta, err := mc.getTable(table)
	if err != nil {
		return nil, err
	}
	meta.mu.RLock()
	defer meta.mu.RUnlock()
	for _, tr := range meta.tablets {
		if tr.start == start && tr.end == end {
			return tr.tab, nil
		}
	}
	return nil, fmt.Errorf("accumulo: tablet [%q,%q) of table %q is not hosted (split raced the request?)",
		start, end, table)
}

// Call implements transport.Handler.
func (h *clusterHandler) Call(op byte, req []byte) ([]byte, error) {
	switch op {
	case opPing:
		// Cluster-launched servers share the coordinator clock; answer
		// the handshake with it and ignore band assignments.
		return binary.AppendUvarint(nil, uint64(h.mc.clock.Load())), nil
	case opWrite:
		wr, err := decodeWriteReq(req)
		if err != nil {
			return nil, err
		}
		entries, err := skv.DecodeBatch(wr.batch)
		if err != nil {
			return nil, fmt.Errorf("accumulo: wire corruption: %w", err)
		}
		tab, err := h.mc.resolveTablet(wr.table, wr.start, wr.end)
		if err != nil {
			return nil, err
		}
		if err := tab.Write(entries); err != nil {
			return nil, fmt.Errorf("accumulo: tablet write: %w", err)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("accumulo: unknown unary op %d", op)
	}
}

// Stream implements transport.Handler: opScan is the only streaming op.
func (h *clusterHandler) Stream(op byte, req []byte, send func([]byte) error) error {
	if op != opScan {
		return fmt.Errorf("accumulo: unknown streaming op %d", op)
	}
	sr, err := decodeScanReq(req)
	if err != nil {
		return err
	}
	tab, err := h.mc.resolveTablet(sr.table, sr.start, sr.end)
	if err != nil {
		return err
	}
	h.mc.Metrics.noteScanStart()
	defer h.mc.Metrics.ScansInFlight.Add(-1)
	// The pass record is detached: cluster-launched servers run in the
	// coordinator process, whose /queries listing should stay kernel-only.
	// The pass counts its own TabletScans; the global count is added here,
	// because the coordinator never folds local trailers into its globals.
	h.mc.stats.Add(telemetry.TabletScans, 1)
	pass := telemetry.NewPass(telemetry.TraceID(sr.traceID), sr.spanID,
		passName(sr), h.mc.tel.Host()).WithTenant(sr.tenant)
	env := &scanEnv{backend: h.mc, tc: traceCtx{q: pass, nested: true}}
	defer env.close()
	var before, after telemetry.Counts
	h.mc.dir.AddCounts(&before)
	err = serveScan(tab.SnapshotForFamilies(sr.tenant, sr.families), sr.ranges, sr.settings, env, sr.batch, pass, send)
	h.mc.dir.AddCounts(&after)
	// Storage deltas are attributed to this pass only — the read path
	// already counted them globally. Concurrent passes in the same
	// process blur the split, but the totals stay exact.
	for c := range after {
		pass.Add(telemetry.Counter(c), after[c]-before[c])
	}
	finishPass(pass, h.mc.tel, err, send)
	return err
}

// passName labels a tablet pass span with its table and hosted range.
func passName(sr scanReq) string {
	return fmt.Sprintf("pass %s [%s,%s)", sr.table, sr.start, sr.end)
}

// finishPass closes a pass record, feeds its duration to the serving
// process's scan-pass histogram, and ships the telemetry trailer as the
// stream's final frame. Trailer delivery is best-effort: a consumer that
// already went away loses only telemetry, not data.
func finishPass(pass *telemetry.Query, reg *telemetry.Registry, err error, send func([]byte) error) {
	d := pass.FinishPass(err)
	reg.ScanPass.Observe(d)
	_ = send(append([]byte{frameTrailer}, telemetry.AppendTrailer(nil, pass.Trailer())...))
}

// serveScan runs a fully merged scan stack over a tablet snapshot and
// ships the results through send one skv-codec batch at a time — the
// server half of every scan. The stack is built once and sought per
// request range (the ranges arrive sorted and disjoint, so the shipped
// stream stays in key order); an empty range list means the tablet's
// full range. send blocking is the backpressure; a send failure means
// the consumer went away, which cancels the pass.
func serveScan(src iterator.SKVI, ranges []skv.Range, settings []iterator.Setting, env iterator.Env, batchSize int, pass *telemetry.Query, send func([]byte) error) error {
	if batchSize <= 0 {
		batchSize = 4096
	}
	if len(ranges) == 0 {
		ranges = []skv.Range{skv.FullRange()}
	}
	setup := pass.StartSpan(0, "stack setup")
	stack, err := iterator.BuildStack(src, settings, env)
	setup.End()
	if err != nil {
		return err
	}
	batch := make([]skv.Entry, 0, batchSize)
	ship := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := send(append([]byte{frameEntries}, skv.EncodeBatch(batch)...))
		batch = batch[:0]
		return err
	}
	for _, rng := range ranges {
		if err := stack.Seek(rng); err != nil {
			return err
		}
		for stack.HasTop() {
			batch = append(batch, stack.Top())
			if len(batch) >= batchSize {
				if err := ship(); err != nil {
					return err
				}
			}
			if err := stack.Next(); err != nil {
				return err
			}
		}
	}
	return ship()
}

// interface check: MiniCluster-launched servers speak the transport.
var _ transport.Handler = (*clusterHandler)(nil)
