package accumulo

// This file implements the client half of the streaming scan pipeline:
// instead of materialising a scan's full result as one slice, the
// caller gets an EntryStream cursor fed by per-tablet fetch workers.
// Each worker opens one remote scan on the tablet's endpoint through
// the transport — the server runs the iterator stack where the tablet
// lives and streams back skv-codec batches — and a bounded pool
// (Config.ScanParallelism) lets workers for several tablets execute
// concurrently while the cursor serves tablets in key order. The
// stream stays globally sorted and the memory held by a scan is
// bounded by wire batches × parallelism, never by table size. This
// mirrors the paper's execution model: kernels run where the tablets
// live, in parallel across tablet servers, and the client consumes a
// trickle.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
	"graphulo/internal/transport"
)

// traceCtx carries a scan's telemetry attribution through the backend:
// the query (or server-side pass) the work belongs to, and the span the
// opened scan should parent under (0 = the query's root). The zero
// value means untraced — every consumer is nil-safe.
type traceCtx struct {
	q      *telemetry.Query
	parent uint64
	// nested marks a scan opened from inside a tablet pass (or a
	// compaction) rather than by a client. Nested scans bypass the
	// shared-scan folder and the pass limit: the outer pass already holds
	// a slot, and letting its server-side reads queue for another one
	// deadlocks the moment passes-in-flight reach the limit.
	nested bool
}

// EntryStream is a streaming cursor over one scan's sorted results.
// Next returns entries until the scan is exhausted or fails; Err reports
// the failure after Next returns false; Close releases the tablet
// workers early. A stream is single-consumer: Next, Err, and Close must
// not be called concurrently with each other. A fully drained stream
// needs no Close (its workers have already exited), and an abandoned
// stream is reclaimed at GC, but closing promptly frees worker
// goroutines and their buffered batches.
type EntryStream struct {
	scans []*tabletScan
	idx   int
	cur   []skv.Entry
	pos   int
	err   error

	done      chan struct{}
	closeOnce sync.Once
	metrics   *Metrics

	// onDone fires once when the stream finishes — exhausted, failed, or
	// closed — ending the client-side scan span. Set (if at all) before
	// the consumer first calls Next.
	onDone   func()
	doneOnce sync.Once
}

// finished fires the stream's completion hook exactly once.
func (s *EntryStream) finished() {
	s.doneOnce.Do(func() {
		if s.onDone != nil {
			s.onDone()
		}
	})
}

// tabletScan carries one tablet worker's output: decoded wire batches,
// then a channel close. err is written before the close when the worker
// failed, so the consumer may read it after the receive fails.
type tabletScan struct {
	batches chan []skv.Entry
	err     error
}

// scanBackend abstracts "the rest of the cluster" for scan pipelines
// and the server-side iterator environment: the MiniCluster implements
// it against its table metadata; the standalone tablet server
// (daemon.go) implements it against the routing topology shipped with
// each scan request. Both route the actual traffic through the
// transport.
type scanBackend interface {
	openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting, tc traceCtx) (*EntryStream, error)
	writeEntries(table string, entries []skv.Entry, q *telemetry.Query) error
	// globals returns the backend process's global counter set, so
	// server-side iterator counters (range pruning, pre-aggregation
	// folds) land in the right process's counters.
	globals() *telemetry.StatSet
}

// startStream builds the cursor and launches per-tablet fetch workers
// in tablet order under the parallelism bound; the cursor consumes
// tablets in the same order, so the stream is globally sorted while
// later tablets prefetch concurrently.
func startStream(metrics *Metrics, par, n int, fetch func(i int, out *tabletScan, done <-chan struct{})) *EntryStream {
	s := &EntryStream{
		scans:   make([]*tabletScan, n),
		done:    make(chan struct{}),
		metrics: metrics,
	}
	for i := range s.scans {
		// Capacity 1: beyond the batch its worker is relaying, each tablet
		// holds at most one decoded batch in flight.
		s.scans[i] = &tabletScan{batches: make(chan []skv.Entry, 1)}
	}
	if par < 1 {
		par = 1
	}
	// The dispatcher and workers must not capture s itself, only its
	// channels, so an abandoned stream becomes unreachable and its
	// finalizer can release them.
	done, scans := s.done, s.scans
	go func() {
		sem := make(chan struct{}, par)
		for i := 0; i < n; i++ {
			select {
			case sem <- struct{}{}:
			case <-done:
				// Close the channels of workers that never started so a
				// draining consumer does not wait on them forever.
				for _, ts := range scans[i:] {
					close(ts.batches)
				}
				return
			}
			go func(i int) {
				defer func() { <-sem }()
				defer close(scans[i].batches)
				fetch(i, scans[i], done)
			}(i)
		}
	}()
	runtime.SetFinalizer(s, (*EntryStream).Close)
	return s
}

// openStream starts a streaming scan over one or more ranges: per
// tablet overlapping any range, a fetch worker opens a remote scan on
// the tablet's endpoint carrying the fully merged stack (table scan
// scope + per-scan extras) and the per-tablet clip of every range, and
// relays the streamed batches to the cursor. Tablets no range touches
// are pruned without a scan pass (SpRef push-down), counted in
// the tablets_pruned_by_range counter. An empty range list means the full
// table. A non-empty families set rides every per-tablet request so the
// serving tablets scope their snapshots to the matching locality
// groups.
func (mc *MiniCluster) openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting, tc traceCtx) (*EntryStream, error) {
	meta, err := mc.getTable(table)
	if err != nil {
		return nil, err
	}
	mc.stats.Count(tc.q, telemetry.ScansStarted, 1)
	ranges, empty := normalizeRanges(ranges)
	if empty {
		// Every requested range is empty: a scan of nothing.
		return startStream(&mc.Metrics, 1, 0, nil), nil
	}
	tablets, pruned := meta.tabletsOverlappingRanges(ranges)
	mc.stats.Count(tc.q, telemetry.TabletsPrunedByRange, int64(pruned))
	settings := append(meta.scopeStack(ScanScope), extra...)
	// The routing topology is identical for every tablet of the scan;
	// encode it once and splice the bytes into each request.
	topoRaw := appendTopology(nil, mc.scanTopology())
	q := tc.q
	span := q.StartSpan(tc.parent, "scan "+table)
	// Trailer folding: the pass's counters and spans always land in the
	// query; its mirrored counters reach the cluster's global set only
	// when the serving process is external — MiniCluster-launched
	// servers already count into mc.stats, so folding would double
	// count.
	external := mc.external()
	onTrailer := func(t *telemetry.Trailer) error {
		q.FoldTrailer(t)
		if external {
			mc.stats.AddMirrored(t.Counts)
			mc.tel.ScanPass.Fold(t.ScanPass)
		}
		// Budgets are enforced where the counters land: the trailer is how
		// a server-side kernel's scan and write volume reaches the query,
		// so it is also where that volume is charged. (Entries relayed to
		// the client are charged separately, at delivery.)
		if err := q.ChargeScanEntries(t.Counts.Get(telemetry.EntriesScanned)); err != nil {
			return err
		}
		return q.ChargeWriteBytes(t.Counts.Get(telemetry.WriteWireBytes))
	}
	s := startStream(&mc.Metrics, mc.cfg.ScanParallelism, len(tablets),
		func(i int, out *tabletScan, done <-chan struct{}) {
			tr := tablets[i]
			clipped := clipRanges(ranges, tr.start, tr.end)
			if len(clipped) == 0 {
				return
			}
			reqFor := func(rs []skv.Range) []byte {
				return encodeScanReq(scanReq{
					table: table, start: tr.start, end: tr.end,
					ranges: rs, settings: settings,
					batch:   mc.cfg.WireBatch,
					traceID: uint64(q.Trace()), spanID: span.ID(),
					tenant:   q.Tenant(),
					families: families,
					topoRaw:  topoRaw,
				})
			}
			if mc.folds == nil || tc.nested {
				// No pass limit configured — or a nested scan issued from
				// inside a pass that already holds a slot: dispatch
				// immediately, the pre-scheduler behaviour.
				relayScan(mc.tr, &mc.Metrics, &mc.stats, q, tr.endpoint, reqFor(clipped), out, done, onTrailer)
				return
			}
			// Pass-limited dispatch. Join the fold group for this tablet
			// before queuing: if a compatible scan is already waiting for
			// its slot, this one rides its physical pass instead of
			// queuing a second one.
			sub := &foldSub{ranges: clipped, out: out, q: q, done: done, finished: make(chan struct{})}
			g, leader := mc.folds.Join(foldKey(tr.endpoint, table, tr.start, tr.end, settings, mc.cfg.WireBatch, families), sub)
			if !leader {
				mc.stats.Count(q, telemetry.SharedScanFolds, 1)
				// The worker must stay alive until the leader is done with
				// our channels: returning here would close out.batches
				// under the leader's sends.
				<-sub.finished
				return
			}
			release, wait := mc.sched.AcquirePass(q.Tenant())
			defer release()
			if wait > 0 {
				mc.stats.Count(q, telemetry.QueueWaitNanos, int64(wait))
				mc.tel.QueueWait.Observe(wait)
			}
			subs := g.Seal()
			if len(subs) == 1 {
				relayScan(mc.tr, &mc.Metrics, &mc.stats, q, tr.endpoint, reqFor(clipped), out, done, onTrailer)
				return
			}
			// One physical pass over the union of every subscriber's
			// ranges, re-clipped per subscriber on delivery.
			var union []skv.Range
			for _, sb := range subs {
				union = append(union, sb.ranges...)
			}
			mc.runFoldedScan(tr.endpoint, reqFor(skv.CoalesceRanges(union)), subs, onTrailer)
		})
	s.onDone = span.End
	return s, nil
}

// foldSub is one scan's subscription to a fold group: the ranges its
// consumer asked for (the leader re-clips deliveries to them), its
// cursor channel, and its query for per-query accounting. finished is
// closed by the leader once it will never touch out again — the
// subscriber's fetch worker must not return (closing out.batches)
// before that.
type foldSub struct {
	ranges   []skv.Range
	out      *tabletScan
	q        *telemetry.Query
	done     <-chan struct{}
	finished chan struct{}
	// dead marks a subscriber the leader dropped (consumer cancelled or
	// budget exhausted); leader-goroutine-local after Seal.
	dead bool
}

// foldKey fingerprints a tablet pass for shared-scan folding: two scans
// fold only when the physical work is identical — same endpoint, table,
// tablet band, merged iterator stack, wire batch size, and column-family
// constraint. Setting opts are serialised in sorted key order so equal
// stacks always collide.
func foldKey(endpoint, table, start, end string, settings []iterator.Setting, batch int, families []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s|%s|%d", endpoint, table, start, end, batch)
	for _, f := range families {
		fmt.Fprintf(&b, "|cf:%s", f)
	}
	for _, s := range settings {
		fmt.Fprintf(&b, "|%s#%d", s.Name, s.Priority)
		keys := make([]string, 0, len(s.Opts))
		for k := range s.Opts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, ";%s=%s", k, s.Opts[k])
		}
	}
	return b.String()
}

// clipBatch filters a delivered batch to the entries inside any of the
// subscriber's ranges. The common fold — identical whole-table scans —
// keeps every entry, so the input batch is returned unchanged when
// nothing is clipped.
func clipBatch(batch []skv.Entry, ranges []skv.Range) []skv.Entry {
	keep := batch[:0:0]
	all := true
	for _, e := range batch {
		in := false
		for _, r := range ranges {
			if !r.BeforeStart(e.K) && !r.AfterEnd(e.K) {
				in = true
				break
			}
		}
		if in {
			keep = append(keep, e)
		} else {
			all = false
		}
	}
	if all {
		return batch
	}
	return keep
}

// runFoldedScan executes one physical tablet pass on behalf of every
// folded subscriber. The leader's query pays the pass's wire accounting
// and receives its telemetry trailer; each delivered batch is re-clipped
// to each subscriber's own ranges and counted against that subscriber's
// query (including its scan budget). A subscriber that cancels or
// exhausts its budget drops out without stopping the others; the pass
// stops early only when every subscriber is gone.
func (mc *MiniCluster) runFoldedScan(endpoint string, req []byte, subs []*foldSub, onTrailer func(*telemetry.Trailer) error) {
	leader := subs[0]
	live := len(subs)
	drop := func(sub *foldSub) {
		if !sub.dead {
			sub.dead = true
			live--
			close(sub.finished)
		}
	}
	err := relayScanCore(mc.tr, &mc.stats, leader.q, endpoint, req, nil, onTrailer,
		func(batch []skv.Entry) error {
			for _, sub := range subs {
				if sub.dead {
					continue
				}
				clipped := clipBatch(batch, sub.ranges)
				if len(clipped) == 0 {
					// Nothing for this subscriber, but still notice a
					// cancelled consumer so its Close does not wait out
					// the whole pass.
					select {
					case <-sub.done:
						drop(sub)
					default:
					}
					continue
				}
				mc.Metrics.noteBuffered(mc.Metrics.EntriesBuffered.Add(int64(len(clipped))))
				select {
				case sub.out.batches <- clipped:
					mc.stats.Count(sub.q, telemetry.EntriesScanned, int64(len(clipped)))
					if err := sub.q.ChargeScanEntries(int64(len(clipped))); err != nil {
						sub.out.err = err
						drop(sub)
					}
				case <-sub.done:
					mc.Metrics.EntriesBuffered.Add(-int64(len(clipped)))
					drop(sub)
				}
			}
			if live == 0 {
				return errRelayStop
			}
			return nil
		})
	for _, sub := range subs {
		if !sub.dead {
			if err != nil && sub.out.err == nil {
				sub.out.err = err
			}
			drop(sub)
		}
	}
}

// globals implements scanBackend.
func (mc *MiniCluster) globals() *telemetry.StatSet { return &mc.stats }

// normalizeRanges coalesces a scan's requested ranges. No ranges at all
// means the full range; ranges that are all empty mean an empty scan
// (empty=true) — the two must not be conflated.
func normalizeRanges(ranges []skv.Range) (_ []skv.Range, empty bool) {
	if len(ranges) == 0 {
		return []skv.Range{skv.FullRange()}, false
	}
	coalesced := skv.CoalesceRanges(ranges)
	return coalesced, len(coalesced) == 0
}

// clipRanges intersects each (sorted, coalesced) range with a tablet's
// row band, dropping empty intersections.
func clipRanges(ranges []skv.Range, start, end string) []skv.Range {
	band := skv.RowRange(start, end)
	var out []skv.Range
	for _, r := range ranges {
		if c := r.Clip(band); !c.IsEmpty() {
			out = append(out, c)
		}
	}
	return out
}

// relayScan is one per-tablet fetch worker: it opens the remote scan and
// relays decoded batches to the cursor channel with backpressure,
// honouring cancellation from the consumer side (done) and failure from
// the server side (Recv errors). Shared by the MiniCluster client and
// the standalone tablet server's nested scans. metrics takes the
// buffered-entry gauges; wire traffic is counted into both the process
// counter set stats and the query q (nil = untraced); a telemetry
// trailer frame — the stream's final payload — is handed to onTrailer
// (nil = dropped).
func relayScan(tr transport.Transport, metrics *Metrics, stats *telemetry.StatSet, q *telemetry.Query, endpoint string, req []byte, out *tabletScan, done <-chan struct{}, onTrailer func(*telemetry.Trailer) error) {
	err := relayScanCore(tr, stats, q, endpoint, req, done, onTrailer,
		func(batch []skv.Entry) error {
			metrics.noteBuffered(metrics.EntriesBuffered.Add(int64(len(batch))))
			select {
			case out.batches <- batch:
				// Only batches the consumer can still receive count as
				// returned to the scan client — and only counted batches
				// charge the query's scan budget.
				stats.Count(q, telemetry.EntriesScanned, int64(len(batch)))
				return q.ChargeScanEntries(int64(len(batch)))
			case <-done:
				metrics.EntriesBuffered.Add(-int64(len(batch)))
				return errRelayStop
			}
		})
	if err != nil {
		out.err = err
	}
}

// errRelayStop tells relayScanCore to stop relaying without recording a
// failure — the consumer side is done with the stream.
var errRelayStop = errors.New("accumulo: relay stopped")

// relayScanCore is the transport half of a fetch worker: it opens the
// remote scan and hands each decoded batch to deliver, which owns
// routing and per-consumer accounting (the plain path sends to one
// cursor channel; the folded path fans out to every subscriber). A
// deliver error stops the relay — errRelayStop silently, anything else
// as the relay's failure. done (nil = never) unblocks a relay stuck in
// Recv when the consumer cancels. Wire traffic is counted into stats
// and q; the telemetry trailer frame goes to onTrailer (nil = dropped).
func relayScanCore(tr transport.Transport, stats *telemetry.StatSet, q *telemetry.Query, endpoint string, req []byte, done <-chan struct{}, onTrailer func(*telemetry.Trailer) error, deliver func([]skv.Entry) error) error {
	conn, err := tr.Dial(endpoint)
	if err != nil {
		return err
	}
	st, err := conn.OpenStream(opScan, req)
	if err != nil {
		return err
	}
	// A worker blocked in Recv cannot watch done itself; a sentinel
	// closes the stream on cancellation, which unblocks Recv.
	fin := make(chan struct{})
	defer close(fin)
	go func() {
		select {
		case <-done:
			st.Close()
		case <-fin:
		}
	}()
	defer st.Close()
	for {
		payload, err := st.Recv()
		if err == io.EOF {
			return nil
		}
		if errors.Is(err, transport.ErrClosed) {
			return nil // cancelled by the consumer via done
		}
		if err != nil {
			return err
		}
		stats.Count(q, telemetry.WireBytes, int64(len(payload)))
		if len(payload) == 0 {
			return fmt.Errorf("accumulo: wire corruption: empty scan frame")
		}
		// Every scan frame leads with a kind byte: entry batches make up
		// the stream, a telemetry trailer ends it. Trailer frames are not
		// RPC-counted — they ride the stream the entries already paid for.
		kind, body := payload[0], payload[1:]
		switch kind {
		case frameTrailer:
			t, err := telemetry.DecodeTrailer(body)
			if err != nil {
				return fmt.Errorf("accumulo: wire corruption: %w", err)
			}
			if onTrailer != nil {
				// A trailer-fold failure (budget exhaustion) is the relay's
				// failure: the pass's volume is charged where it is counted.
				if err := onTrailer(&t); err != nil {
					return err
				}
			}
			continue
		case frameEntries:
		default:
			return fmt.Errorf("accumulo: wire corruption: unknown scan frame kind %d", kind)
		}
		stats.Count(q, telemetry.RPCs, 1)
		batch, err := skv.DecodeBatch(body)
		if err != nil {
			return fmt.Errorf("accumulo: wire corruption: %w", err)
		}
		if err := deliver(batch); err != nil {
			if errors.Is(err, errRelayStop) {
				return nil
			}
			return err
		}
	}
}

// Next returns the next entry in key order, or ok=false when the stream
// is exhausted, failed (see Err), or closed.
func (s *EntryStream) Next() (skv.Entry, bool) {
	for s.err == nil {
		if s.pos < len(s.cur) {
			e := s.cur[s.pos]
			s.pos++
			return e, true
		}
		s.metrics.EntriesBuffered.Add(-int64(len(s.cur)))
		s.cur, s.pos = nil, 0
		if s.idx >= len(s.scans) {
			break
		}
		ts := s.scans[s.idx]
		batch, ok := <-ts.batches
		if !ok {
			if ts.err != nil {
				s.err = ts.err
				break
			}
			s.idx++
			continue
		}
		s.cur = batch
	}
	s.finished()
	return skv.Entry{}, false
}

// Err reports the first scan failure; valid once Next has returned
// false.
func (s *EntryStream) Err() error { return s.err }

// Close releases the stream's tablet workers. It is idempotent and safe
// at any point, including after a full drain.
func (s *EntryStream) Close() {
	s.closeOnce.Do(func() {
		runtime.SetFinalizer(s, nil)
		close(s.done)
		// Drain so blocked workers observe the close or complete their
		// final send, and the buffered-entries gauge drops batches that
		// never reached the consumer.
		for _, ts := range s.scans {
			for batch := range ts.batches {
				s.metrics.EntriesBuffered.Add(-int64(len(batch)))
			}
		}
		s.metrics.EntriesBuffered.Add(-int64(len(s.cur)))
		s.cur = nil
		s.finished()
	})
}

// Collect drains the stream into a slice and closes it — the
// materialising convenience the streaming callers fall back to.
func (s *EntryStream) Collect() ([]skv.Entry, error) {
	defer s.Close()
	var out []skv.Entry
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		out = append(out, e)
	}
	return out, s.Err()
}

// CollectFloatByRow drains the stream into a row → decoded-float map
// and closes it — the shape of every vector read (degree tables, rank
// vectors, reduce outputs). Entries whose values do not decode as
// floats are skipped; rows with several numeric entries keep the last.
func (s *EntryStream) CollectFloatByRow() (map[string]float64, error) {
	defer s.Close()
	out := map[string]float64{}
	for e, ok := s.Next(); ok; e, ok = s.Next() {
		if v, ok := skv.DecodeFloat(e.V); ok {
			out[e.K.Row] = v
		}
	}
	return out, s.Err()
}

// --- server-side iterator environment ---

// scanEnv implements iterator.Env for server-side iterators: scanners
// opened from inside a tablet server still route through the transport,
// because in Accumulo a RemoteSourceIterator is an ordinary client of
// the remote tablet server. The env records every remote stream its
// iterators open so the tablet pass can release them when it completes —
// a TwoTableIterator abandons the remote side mid-stream when the
// hosted side runs dry.
type scanEnv struct {
	backend scanBackend
	// tc attributes the env's work — nested scans, RemoteWrite flushes,
	// iterator counters — to the tablet pass (or compaction) it serves.
	tc     traceCtx
	opened []*EntryStream
}

// openStream opens a nested scan attributed to this env's pass.
func (e *scanEnv) openStream(table string, ranges []skv.Range, families []string, extra []iterator.Setting) (*EntryStream, error) {
	return e.backend.openStream(table, ranges, families, extra, e.tc)
}

// OpenScanner implements iterator.Env. The returned SKVI is streaming:
// it holds wire batches, not the remote table, and is positioned at the
// first entry of rng (callers may iterate without an initial Seek). The
// underlying stream is opened with rng's bounds pushed down — tablets
// (and, durably, rfiles) outside them are pruned — and a later Seek
// whose range escapes the opened bounds re-issues the remote scan;
// kernels clip their re-seeks to the first range, so a tablet pass
// still costs exactly one remote scan.
func (e *scanEnv) OpenScanner(table string, rng skv.Range) (iterator.SKVI, error) {
	return e.OpenScannerFamilies(table, rng, nil)
}

// OpenScannerFamilies implements iterator.FamilyEnv: the nested scan is
// opened with the column-family constraint pushed down to the remote
// table's locality groups. The request's own family constraint is never
// auto-forwarded here — nested scans read *other* tables (a multiply's
// remote operand, a degree table) whose family bands differ from the
// hosted table's — so each iterator pushes the band it knows applies.
func (e *scanEnv) OpenScannerFamilies(table string, rng skv.Range, families []string) (iterator.SKVI, error) {
	it := &streamIter{env: e, table: table, families: families}
	if err := it.reopen(rng); err != nil {
		return nil, err
	}
	return it, nil
}

// WriteEntries implements iterator.Env. Each flush is timed into the
// pass's write-batch histogram and recorded as a span, so RemoteWrite
// batches leaving a tablet pass are visible in the query's trace.
func (e *scanEnv) WriteEntries(table string, entries []skv.Entry) error {
	span := e.tc.q.StartSpan(e.tc.parent, "flush "+table)
	start := time.Now()
	err := e.backend.writeEntries(table, entries, e.tc.q)
	e.tc.q.ObserveWriteBatch(time.Since(start))
	span.End()
	return err
}

// CountRangePruned implements iterator.Counters: entries a server-side
// range filter dropped.
func (e *scanEnv) CountRangePruned(n int) {
	e.backend.globals().Count(e.tc.q, telemetry.EntriesPrunedByRange, int64(n))
}

// CountFolded implements iterator.Counters: partial products absorbed
// by RemoteWrite pre-aggregation.
func (e *scanEnv) CountFolded(n int) {
	e.backend.globals().Count(e.tc.q, telemetry.PartialProductsFolded, int64(n))
}

// close releases every remote stream this env's iterators opened.
func (e *scanEnv) close() {
	for _, s := range e.opened {
		s.Close()
	}
	e.opened = nil
}

// streamIter adapts an EntryStream to the SKVI contract for server-side
// remote reads. Forward seeks within the opened range — starting at or
// past the current position — are served by skipping within the open
// stream, so a tablet pass issues exactly one remote scan no matter how
// often the kernel re-seeks (Graphulo's streaming RemoteSourceIterator
// contract). Only a seek that demonstrably needs entries the stream
// cannot produce — already consumed, before the opened start, or past
// the opened end — re-issues the remote scan. The opened range's end is
// pushed down to the remote side so its tablet and rfile pruning apply;
// kernels (TwoTableIterator) clip their re-seeks to the range they
// opened with, keeping the one-scan-per-pass property.
type streamIter struct {
	env      *scanEnv
	table    string
	families []string // column-family constraint pushed down on every (re)open
	stream   *EntryStream
	open     skv.Range // range the stream was opened with (both bounds pushed)
	rng      skv.Range
	cur      skv.Entry
	has      bool
	moved    bool // entries before cur have been consumed since (re)open
}

// reopen issues a fresh remote scan over rng — both bounds pushed down
// — and positions the iterator at its first entry.
func (it *streamIter) reopen(rng skv.Range) error {
	if it.stream != nil {
		it.stream.Close()
	}
	s, err := it.env.openStream(it.table, []skv.Range{rng}, it.families, nil)
	if err != nil {
		return err
	}
	it.env.opened = append(it.env.opened, s)
	it.stream = s
	it.open = rng
	it.rng = rng
	it.moved = false
	it.cur, it.has = s.Next()
	if !it.has {
		return s.Err()
	}
	return nil
}

// Seek implements SKVI.
func (it *streamIter) Seek(rng skv.Range) error {
	// The stream can serve rng in place unless it needs entries the
	// stream cannot produce: entries before the opened start or past the
	// opened end (never fetched), or — once the cursor has moved —
	// entries before the current one (consumed), including the tail of
	// an exhausted stream.
	needEarlier := it.open.HasStart &&
		(!rng.HasStart || skv.Compare(rng.Start, it.open.Start) < 0)
	needLater := it.open.HasEnd &&
		(!rng.HasEnd || skv.Compare(rng.End, it.open.End) > 0)
	consumed := it.moved &&
		(!rng.HasStart || !it.has || skv.Compare(rng.Start, it.cur.K) < 0)
	if it.stream == nil || needEarlier || needLater || consumed {
		if err := it.reopen(rng); err != nil {
			return err
		}
	}
	it.rng = rng
	for it.has && rng.BeforeStart(it.cur.K) {
		if err := it.advance(); err != nil {
			return err
		}
	}
	return nil
}

func (it *streamIter) advance() error {
	it.moved = true
	it.cur, it.has = it.stream.Next()
	if !it.has {
		return it.stream.Err()
	}
	return nil
}

// HasTop implements SKVI.
func (it *streamIter) HasTop() bool { return it.has && !it.rng.AfterEnd(it.cur.K) }

// Top implements SKVI.
func (it *streamIter) Top() skv.Entry { return it.cur }

// Next implements SKVI.
func (it *streamIter) Next() error { return it.advance() }
