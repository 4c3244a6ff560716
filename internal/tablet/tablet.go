// Package tablet implements the storage engine under each tablet server:
// a skip-list memtable absorbing writes, immutable sorted runs ("RFiles")
// produced by minor compaction, k-way merged reads, and major compaction
// folding runs together with the table's compaction iterator stack.
//
// A tablet owns a contiguous row range of one table, exactly as in
// Accumulo; splitting a tablet at a row boundary yields two tablets that
// partition its range (the split receiver is retired and refuses further
// compactions).
//
// Tablets come in two durability modes. An in-memory tablet (New) keeps
// its runs on the heap and loses everything at process exit. A durable
// tablet (NewDurable) is wired to a Backing — implemented by
// internal/store — and follows the Accumulo write path: every write
// batch is appended to a write-ahead log before entering the memtable,
// minor compaction flushes the memtable to an on-disk rfile and drops
// the WAL segments it covers, and major compaction replaces all rfiles
// with one merged file. After a crash, the store replays the WAL into
// the memtable, so scans see exactly the acknowledged writes.
//
// # Write-path concurrency
//
// The ingest hot path is built so writers never wait on scans, flushes,
// or each other beyond the WAL's group commit:
//
//   - The memtable is a lock-free concurrent skip list; concurrent
//     Write calls insert in parallel, and scans iterate the live
//     structure under a sequence-number watermark instead of copying
//     it.
//   - Writers hold freezeMu.RLock around WAL-append + insert; a freeze
//     takes the write side to atomically rotate the WAL and swap in a
//     fresh memtable. That keeps the durability invariant — every WAL
//     record covered by a rotation mark is in the frozen memtable, not
//     the new active one — without a global write lock.
//   - A full memtable is frozen and queued; a background goroutine
//     flushes the queue to runs (serialised on compactMu with manual
//     compactions), so Write never runs a minor compaction inline.
//     Scans merge active + frozen + runs. When the frozen queue backs
//     up past maxFrozen, writers stall and the stall time is counted.
//
// # Read-path maintenance
//
// Every scan k-way merges the memtable with all live runs, so scan cost
// grows with the run count, which sustained ingest grows without bound:
// each memtable spill adds a run and only major compaction removes
// them. Two mechanisms keep the read path fast:
//
//   - The durable runs' rfiles carry bloom filters and share the data
//     directory's block cache (see internal/rfile), so merged reads
//     skip files that cannot contain a sought row and decode each
//     resident block once across scans.
//   - A background compaction Scheduler (one per durable table, started
//     by the cluster layer) watches RunCount and, whenever the count
//     exceeds its threshold, merges a contiguous group of similar-sized
//     runs — size-tiered picking via MergeRuns, with the table's majc
//     iterator stack — so steady ingest folds its tier of fresh small
//     runs without rewriting the large old ones. Scheduled compactions
//     serialise against manual compactions and splits on the per-tablet
//     compaction mutex, and scans stay live and correct throughout: a
//     scan's snapshot pins the pre-compaction runs until it finishes.
package tablet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphulo/internal/iterator"
	"graphulo/internal/rfile"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// DefaultMaxFrozen is the default frozen-memtable queue depth; writers
// stall once the background flusher falls this far behind, converting
// unbounded memory growth into measured backpressure
// (the write_stall_nanos counter). Override per tablet with SetMaxFrozen.
const DefaultMaxFrozen = 2

// Backing is the durability hook a durable tablet calls into; the
// internal/store package implements it on a data directory. All entry
// slices handed over are sorted and fully merged.
type Backing interface {
	// LogAsync appends one write batch to the tablet's WAL without
	// waiting for the fsync, returning a token for WaitDurable. Called
	// with the tablet's freeze lock held shared, so a freeze's rotation
	// mark cleanly separates batches logged before it (in the frozen
	// memtable) from after (in the new active one). Concurrent writers
	// may interleave, ordered only by the WAL's own internal lock.
	LogAsync(batch []skv.Entry) (seq uint64, err error)
	// WaitDurable blocks until the batch identified by seq is on stable
	// storage; called outside the freeze lock so concurrent writers
	// share fsyncs (group commit).
	WaitDurable(seq uint64) error
	// Rotate starts a fresh WAL segment and returns a mark covering all
	// records logged so far. Called with the freeze lock held exclusive
	// at memtable swap time, so the swap and the mark agree.
	Rotate() (mark uint64, err error)
	// Flush persists a minor compaction: entries become a new rfile
	// registered as the tablet's newest run, and WAL segments <= mark
	// are dropped. With no entries it only drops the segments and
	// returns a nil reader.
	Flush(entries []skv.Entry, mark uint64) (*rfile.Reader, error)
	// Compact persists a major compaction: entries replace every
	// existing rfile, and WAL segments <= mark are dropped. With no
	// entries the tablet becomes empty on disk and the reader is nil.
	Compact(entries []skv.Entry, mark uint64) (*rfile.Reader, error)
	// Merge persists a partial (size-tiered) compaction: entries become
	// one new rfile replacing exactly the files at positions [lo, hi)
	// of the tablet's oldest-first rfile list, which matches the
	// tablet's run order. The memtable and WAL are untouched. With no
	// entries the group simply disappears and the reader is nil.
	Merge(entries []skv.Entry, lo, hi int) (*rfile.Reader, error)
	// Split atomically replaces this tablet's on-disk state with two
	// halves at the row boundary, returning each half's backing and its
	// initial run (nil when that half is empty).
	Split(row string, left, right []skv.Entry) (lb, rb Backing, lrun, rrun *rfile.Reader, err error)
	// Drop deletes the tablet's files (table deletion).
	Drop() error
}

// frozenMem is an immutable memtable awaiting background flush, paired
// with the WAL rotation mark covering exactly its records.
type frozenMem struct {
	mem  *memtable
	mark uint64
}

// Tablet owns the contiguous row range [StartRow, EndRow) of one table
// ("" bounds are infinite). Writes land in the active memtable; a full
// memtable is frozen (swapped for a fresh one) and flushed to an
// immutable run in the background; major compaction merges runs. Scans
// merge the active memtable, frozen memtables, and every live run.
type Tablet struct {
	StartRow string // inclusive; "" = -inf
	EndRow   string // exclusive; "" = +inf

	// freezeMu orders writers against freezes. Writers hold the read
	// side across WAL-append + memtable insert; a freeze holds the
	// write side across WAL rotation + active-memtable swap. So every
	// record covered by a rotation mark is in the frozen memtable, and
	// writers never block each other here.
	freezeMu sync.RWMutex
	active   atomic.Pointer[memtable]

	mu         sync.Mutex
	flushCond  *sync.Cond   // signalled when the frozen queue drains
	frozen     []*frozenMem // oldest first, awaiting background flush
	flushErr   error        // last background flush failure (cleared on success)
	runs       []run
	memLimit   int   // entries before freeze
	flushBytes int   // approx memtable bytes before freeze (0 = count-only)
	maxFrozen  int   // frozen-queue depth before writers stall
	seed       int64 // kept for split lineage naming; level draws are per-goroutine
	backing    Backing
	retired    bool // set by SplitAt; the tablet must absorb no more work

	// stats receives the write-path pressure counters (memtable
	// freezes, write-stall time); a cluster shares its global set
	// across every tablet it hosts.
	stats       *telemetry.StatSet
	flushNotify func() // optional: invoked after a background flush adds a run

	// compactMu serialises frozen-queue flushes, minor/major
	// compactions, and splits against each other (writes and scans stay
	// concurrent). Without it, two overlapping compactions could each
	// rotate the WAL and the later one drop segments whose entries the
	// earlier one has snapshotted but not yet persisted — losing
	// acknowledged writes on crash — or a major compaction could
	// clobber the run a concurrent background flush just added.
	compactMu sync.Mutex
}

// New creates an empty in-memory tablet over [startRow, endRow).
func New(startRow, endRow string, memLimit int, seed int64) *Tablet {
	if memLimit <= 0 {
		memLimit = 1 << 14
	}
	t := &Tablet{
		StartRow:  startRow,
		EndRow:    endRow,
		memLimit:  memLimit,
		maxFrozen: DefaultMaxFrozen,
		seed:      seed,
		stats:     &telemetry.StatSet{},
	}
	t.active.Store(newMemtable())
	t.flushCond = sync.NewCond(&t.mu)
	return t
}

// NewDurable creates a tablet wired to a durable backing. runs are the
// recovered on-disk runs, oldest first, and replay holds WAL entries to
// restore into the memtable (both nil for a fresh tablet).
func NewDurable(startRow, endRow string, memLimit int, seed int64, b Backing, runs []*rfile.Reader, replay []skv.Entry) *Tablet {
	t := New(startRow, endRow, memLimit, seed)
	t.backing = b
	for _, rd := range runs {
		t.runs = append(t.runs, diskRun{rd})
	}
	mem := t.active.Load()
	for _, e := range replay {
		mem.insert(e)
	}
	return t
}

// SetFlushBytes sets the approximate memtable byte budget that triggers
// a freeze in addition to the entry-count limit (0 disables the byte
// trigger). Call before the tablet takes traffic.
func (t *Tablet) SetFlushBytes(n int) { t.flushBytes = n }

// SetMaxFrozen sets the frozen-memtable queue depth writers may build
// up before stalling (<= 0 restores DefaultMaxFrozen). A deeper queue
// absorbs longer ingest bursts at the cost of more memory and a wider
// scan merge. Call before the tablet takes traffic.
func (t *Tablet) SetMaxFrozen(n int) {
	if n <= 0 {
		n = DefaultMaxFrozen
	}
	t.maxFrozen = n
}

// SetStats points the tablet's write-path counters (MemtableFreezes,
// WriteStallNanos) at a shared counter set. Call before the tablet
// takes traffic.
func (t *Tablet) SetStats(s *telemetry.StatSet) {
	if s != nil {
		t.stats = s
	}
}

// SetFlushNotify registers a hook invoked after a background flush
// registers a new run — the cluster layer points it at the compaction
// scheduler's Kick so freshly spilled runs are folded promptly. Call
// before the tablet takes traffic.
func (t *Tablet) SetFlushNotify(f func()) { t.flushNotify = f }

// Backing returns the tablet's durability hook (nil when in-memory).
func (t *Tablet) Backing() Backing { return t.backing }

// RunCount returns the number of live immutable runs — the k-way merge
// width a scan pays on top of the memtables. The background compaction
// scheduler polls it.
func (t *Tablet) RunCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.runs)
}

// RunSizes returns the entry counts of the live runs, oldest first —
// the size profile the size-tiered compaction picker works from.
func (t *Tablet) RunSizes() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, len(t.runs))
	for i, r := range t.runs {
		out[i] = r.count()
	}
	return out
}

// Retired reports whether the tablet has been split away and must not
// absorb further work.
func (t *Tablet) Retired() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retired
}

// OwnsRow reports whether the tablet's range contains row.
func (t *Tablet) OwnsRow(row string) bool {
	if t.StartRow != "" && row < t.StartRow {
		return false
	}
	if t.EndRow != "" && row >= t.EndRow {
		return false
	}
	return true
}

// Range returns the tablet's row range.
func (t *Tablet) Range() skv.Range { return skv.RowRange(t.StartRow, t.EndRow) }

// Write logs entries (which must belong to this tablet's range) to the
// WAL when durable and inserts them into the active memtable. The
// critical section is the freeze lock's read side around WAL-append +
// insert, so concurrent writers proceed in parallel; the fsync wait
// happens outside it (group commit), and a full memtable is frozen for
// background flush rather than compacted inline.
func (t *Tablet) Write(entries []skv.Entry) error {
	if err := t.stallForFrozen(); err != nil {
		return err
	}
	t.freezeMu.RLock()
	var seq uint64
	if t.backing != nil {
		var err error
		if seq, err = t.backing.LogAsync(entries); err != nil {
			t.freezeMu.RUnlock()
			return err
		}
	}
	mem := t.active.Load()
	for _, e := range entries {
		mem.insert(e)
	}
	needFreeze := mem.count() >= t.memLimit ||
		(t.flushBytes > 0 && mem.approxBytes() >= t.flushBytes)
	t.freezeMu.RUnlock()
	if t.backing != nil {
		if err := t.backing.WaitDurable(seq); err != nil {
			return err
		}
	}
	if needFreeze {
		return t.freeze(mem)
	}
	return nil
}

// stallForFrozen blocks while the frozen queue is at capacity —
// backpressure when ingest outruns the background flusher — counting
// the stalled time. A sticky background-flush failure is surfaced to
// the writer instead of deadlocking it.
func (t *Tablet) stallForFrozen() error {
	t.mu.Lock()
	if len(t.frozen) < t.maxFrozen || t.retired {
		t.mu.Unlock()
		return nil
	}
	start := time.Now()
	for len(t.frozen) >= t.maxFrozen && t.flushErr == nil && !t.retired {
		t.flushCond.Wait()
	}
	err := t.flushErr
	t.mu.Unlock()
	t.stats.Add(telemetry.WriteStallNanos, time.Since(start).Nanoseconds())
	return err
}

// freeze swaps a fresh active memtable in place of old and queues old
// (with a WAL mark covering exactly its records) for background flush.
// A no-op if old is no longer the active memtable — concurrent writers
// that all saw the memtable full race here, and one wins.
func (t *Tablet) freeze(old *memtable) error {
	t.freezeMu.Lock()
	if t.active.Load() != old || old.count() == 0 {
		t.freezeMu.Unlock()
		return nil
	}
	var mark uint64
	if t.backing != nil {
		var err error
		if mark, err = t.backing.Rotate(); err != nil {
			t.freezeMu.Unlock()
			return err
		}
	}
	// Queue before swapping: a concurrent Snapshot loads the active
	// memtable first and the frozen list second, so old is visible in
	// at least one of the two at every instant (both for a moment — the
	// dedup merge collapses that harmlessly).
	t.mu.Lock()
	t.frozen = append(t.frozen, &frozenMem{mem: old, mark: mark})
	t.mu.Unlock()
	t.active.Store(newMemtable())
	t.freezeMu.Unlock()
	t.stats.Add(telemetry.MemtableFreezes, 1)
	go t.flushFrozen()
	return nil
}

// flushFrozen drains the frozen queue to runs, oldest first, stopping
// at the first failure (the failed memtable stays queued and scannable,
// its WAL segments intact, so nothing is lost — the error is surfaced
// to stalled writers and retried by the next freeze or MinorCompact).
func (t *Tablet) flushFrozen() {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	for {
		t.mu.Lock()
		n := len(t.frozen)
		t.mu.Unlock()
		if n == 0 {
			return
		}
		if err := t.flushFrozenLocked(nil); err != nil {
			return
		}
	}
}

// flushFrozenLocked persists the oldest frozen memtable as a run.
// Caller holds compactMu.
func (t *Tablet) flushFrozenLocked(stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	t.mu.Lock()
	if t.retired || len(t.frozen) == 0 {
		t.mu.Unlock()
		return nil
	}
	f := t.frozen[0]
	t.mu.Unlock()

	entries, err := applyStack(f.mem.iter(), stack)
	var newRun run
	if err == nil {
		if t.backing != nil {
			var rd *rfile.Reader
			if rd, err = t.backing.Flush(entries, f.mark); err == nil && rd != nil {
				newRun = diskRun{rd}
			}
		} else if len(entries) > 0 {
			newRun = newMemRun(entries)
		}
	}
	t.mu.Lock()
	if err != nil {
		t.flushErr = err
		t.flushCond.Broadcast()
		t.mu.Unlock()
		return err
	}
	// Swap the memtable out of the frozen queue and its run in under
	// one lock hold, so a concurrent Snapshot sees the data in exactly
	// one place.
	if newRun != nil {
		t.runs = append(t.runs, newRun)
	}
	t.frozen = t.frozen[1:]
	t.flushErr = nil
	t.flushCond.Broadcast()
	t.mu.Unlock()
	if t.flushNotify != nil && newRun != nil {
		t.flushNotify()
	}
	return nil
}

// WaitFlush blocks until every queued frozen memtable has been flushed
// by the background flusher (or a flush failure is pending), for
// callers that need a settled run list without forcing a freeze.
func (t *Tablet) WaitFlush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.frozen) > 0 && t.flushErr == nil {
		t.flushCond.Wait()
	}
	return t.flushErr
}

// MinorCompact synchronously freezes the active memtable and drains the
// whole frozen queue into runs, applying the optional compaction
// iterator stack (e.g. a summing combiner) on the way out — Accumulo's
// minc scope. Durable tablets write each run as an rfile and reclaim
// the WAL segments it covers.
func (t *Tablet) MinorCompact(stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	if err := t.freeze(t.active.Load()); err != nil {
		return err
	}
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	for {
		t.mu.Lock()
		n := len(t.frozen)
		t.mu.Unlock()
		if n == 0 {
			break
		}
		if err := t.flushFrozenLocked(stack); err != nil {
			return err
		}
	}
	if t.backing == nil {
		return nil
	}
	// Nothing buffered anywhere: every logged record is already
	// flushed, so rotate and reclaim stale WAL segments (they pile up
	// across reopens otherwise). The exclusive freeze lock fences out
	// writers, so no record can slip under the mark unflushed; Rotate
	// is a no-op when the log is empty.
	t.freezeMu.Lock()
	t.mu.Lock()
	idle := !t.retired && len(t.frozen) == 0 && t.active.Load().count() == 0
	t.mu.Unlock()
	if !idle {
		t.freezeMu.Unlock()
		return nil // raced a writer; its own freeze will flush
	}
	mark, err := t.backing.Rotate()
	t.freezeMu.Unlock()
	if err != nil {
		return err
	}
	_, err = t.backing.Flush(nil, mark)
	return err
}

// MajorCompact merges all runs (and the memtables) into a single run,
// applying the optional compaction stack — Accumulo's majc scope with
// the flush flag. Durable tablets replace every rfile with the merged
// one and reclaim all covered WAL segments.
func (t *Tablet) MajorCompact(stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	if t.Retired() {
		// A background scheduler can race a split: it fetched this
		// tablet, then SplitAt replaced it. The halves own the data now.
		return nil
	}
	// Freeze the active memtable under the exclusive freeze lock; the
	// rotation mark then covers exactly the records of everything this
	// compaction merges (frozen queue + runs).
	t.freezeMu.Lock()
	var mark uint64
	if t.backing != nil {
		var err error
		if mark, err = t.backing.Rotate(); err != nil {
			t.freezeMu.Unlock()
			return err
		}
	}
	old := t.active.Load()
	if old.count() > 0 {
		t.mu.Lock()
		t.frozen = append(t.frozen, &frozenMem{mem: old, mark: mark})
		t.mu.Unlock()
		t.active.Store(newMemtable())
		t.stats.Add(telemetry.MemtableFreezes, 1)
	}
	t.freezeMu.Unlock()

	t.mu.Lock()
	consumed := len(t.frozen)
	sources := make([]iterator.SKVI, 0, consumed+len(t.runs))
	for i := consumed - 1; i >= 0; i-- {
		sources = append(sources, t.frozen[i].mem.iter())
	}
	for i := len(t.runs) - 1; i >= 0; i-- {
		sources = append(sources, t.runs[i].iter())
	}
	t.mu.Unlock()

	if len(sources) == 0 && t.backing == nil {
		return nil
	}
	entries, err := applyStack(iterator.NewDedupMergeIter(sources...), stack)
	if err != nil {
		return err // frozen memtables stay queued and scannable
	}
	var merged run
	if t.backing != nil {
		rd, err := t.backing.Compact(entries, mark)
		if err != nil {
			return err
		}
		if rd != nil {
			merged = diskRun{rd}
		}
	} else if len(entries) > 0 {
		merged = newMemRun(entries)
	}
	t.mu.Lock()
	if merged == nil {
		t.runs = nil
	} else {
		t.runs = []run{merged}
	}
	// Only the frozen memtables this compaction consumed are retired;
	// ones queued by writers since stay for the background flusher
	// (which has been waiting on compactMu).
	t.frozen = t.frozen[consumed:]
	t.flushErr = nil
	t.flushCond.Broadcast()
	t.mu.Unlock()
	return nil
}

// MergeRuns folds the contiguous run group [lo, hi) — positions in the
// oldest-first run list — into a single run, applying the optional
// compaction stack. This is the size-tiered partial compaction: the
// memtable and the runs outside the group are untouched, so merging a
// tier of small runs never rewrites a large old run the way a full
// MajorCompact would. The group is contiguous so the merged run keeps
// its position, preserving newest-shadows-oldest order across the rest
// of the run list; the compaction stack's ⊕ combiners are associative
// and commutative, so folding a subset now and the rest at scan time
// yields the same cells. Durable tablets atomically swap the group's
// rfiles for the merged one; the WAL is untouched (the group's data is
// already durable in rfiles).
//
// The indices are validated against the current run list under the
// compaction lock, so a caller working from a stale RunSizes snapshot
// gets an error rather than merging the wrong group.
func (t *Tablet) MergeRuns(lo, hi int, stack func(iterator.SKVI) (iterator.SKVI, error)) error {
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	t.mu.Lock()
	if t.retired {
		// As in MajorCompact: a background scheduler can race a split.
		t.mu.Unlock()
		return nil
	}
	if lo < 0 || hi > len(t.runs) || hi-lo < 2 {
		n := len(t.runs)
		t.mu.Unlock()
		return fmt.Errorf("tablet: merge group [%d,%d) invalid for %d runs", lo, hi, n)
	}
	sources := make([]iterator.SKVI, 0, hi-lo)
	for i := hi - 1; i >= lo; i-- { // newest first, as Snapshot orders them
		sources = append(sources, t.runs[i].iter())
	}
	t.mu.Unlock()

	entries, err := applyStack(iterator.NewDedupMergeIter(sources...), stack)
	if err != nil {
		return err
	}
	var merged run
	if t.backing != nil {
		rd, err := t.backing.Merge(entries, lo, hi)
		if err != nil {
			return err
		}
		if rd != nil {
			merged = diskRun{rd}
		}
	} else if len(entries) > 0 {
		merged = newMemRun(entries)
	}
	t.mu.Lock()
	// compactMu is held, so the run list (and the group's indices) are
	// unchanged since the snapshot above.
	runs := make([]run, 0, len(t.runs)-(hi-lo)+1)
	runs = append(runs, t.runs[:lo]...)
	if merged != nil {
		runs = append(runs, merged)
	}
	runs = append(runs, t.runs[hi:]...)
	t.runs = runs
	t.mu.Unlock()
	return nil
}

func applyStack(src iterator.SKVI, stack func(iterator.SKVI) (iterator.SKVI, error)) ([]skv.Entry, error) {
	it := src
	if stack != nil {
		var err error
		it, err = stack(src)
		if err != nil {
			return nil, err
		}
	}
	if err := it.Seek(skv.FullRange()); err != nil {
		return nil, err
	}
	return iterator.Collect(it)
}

// Snapshot returns an iterator source over the tablet's current
// contents (active memtable + frozen memtables + all runs), valid
// independently of later writes: the memtable sources carry a
// sequence-number watermark instead of copying entries, so taking a
// snapshot is O(sources) and never blocks writers.
func (t *Tablet) Snapshot() iterator.SKVI { return t.SnapshotFor("") }

// SnapshotFor is Snapshot with the scan's block-cache inserts charged
// to tenant — the cache-partition accounting for scans that carry a
// tenant label. Memtable sources ignore the label.
func (t *Tablet) SnapshotFor(tenant string) iterator.SKVI {
	return t.SnapshotForFamilies(tenant, nil)
}

// SnapshotForFamilies is SnapshotFor constrained to a column-family set
// (empty = unconstrained). Disk runs with a locality-group directory
// serve the constraint by loading only the matching families' block
// runs; memtable sources (and pre-v4 files) filter per entry.
func (t *Tablet) SnapshotForFamilies(tenant string, families []string) iterator.SKVI {
	// Load the active memtable before the frozen list: freeze queues
	// the old memtable before swapping, so at every instant old is in
	// at least one of the two views (duplicates collapse in the merge).
	active := t.active.Load()
	t.mu.Lock()
	sources := make([]iterator.SKVI, 0, len(t.frozen)+len(t.runs)+1)
	sources = append(sources, active.iter())
	for i := len(t.frozen) - 1; i >= 0; i-- {
		sources = append(sources, t.frozen[i].mem.iter())
	}
	if len(families) == 0 {
		for i := len(t.runs) - 1; i >= 0; i-- {
			sources = append(sources, t.runs[i].iterFor(tenant))
		}
	} else {
		for i := len(sources) - 1; i >= 0; i-- {
			sources[i] = iterator.NewColumnFilterIter(sources[i], families...)
		}
		for i := len(t.runs) - 1; i >= 0; i-- {
			sources = append(sources, t.runs[i].iterFamilies(tenant, families))
		}
	}
	t.mu.Unlock()
	return iterator.NewDedupMergeIter(sources...)
}

// EntryEstimate returns the approximate number of stored entries
// (pre-compaction duplicates included).
func (t *Tablet) EntryEstimate() int {
	active := t.active.Load()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := active.count()
	for _, f := range t.frozen {
		n += f.mem.count()
	}
	for _, r := range t.runs {
		n += r.count()
	}
	return n
}

// SplitAt partitions the tablet at row boundary (which must lie strictly
// inside its range), returning the two halves [start, row) and
// [row, end). The receiver must not be used afterwards. Durable tablets
// atomically swap their on-disk state for the two halves'.
func (t *Tablet) SplitAt(row string) (*Tablet, *Tablet, error) {
	// Callers serialise splits against writes; the compaction lock
	// additionally fences out in-flight background flushes and major
	// compactions.
	t.compactMu.Lock()
	defer t.compactMu.Unlock()
	// Collect the merged view.
	it := t.Snapshot()
	if err := it.Seek(skv.FullRange()); err != nil {
		return nil, nil, err
	}
	entries, err := iterator.Collect(it)
	if err != nil {
		return nil, nil, err
	}
	cut := sort.Search(len(entries), func(i int) bool {
		return entries[i].K.Row >= row
	})
	leftE, rightE := entries[:cut], entries[cut:]

	left := New(t.StartRow, row, t.memLimit, t.seed*2+1)
	right := New(row, t.EndRow, t.memLimit, t.seed*2+2)
	left.SetFlushBytes(t.flushBytes)
	right.SetFlushBytes(t.flushBytes)
	left.SetMaxFrozen(t.maxFrozen)
	right.SetMaxFrozen(t.maxFrozen)
	left.SetStats(t.stats)
	right.SetStats(t.stats)
	left.SetFlushNotify(t.flushNotify)
	right.SetFlushNotify(t.flushNotify)
	if t.backing == nil {
		if len(leftE) > 0 {
			left.runs = append(left.runs, newMemRun(leftE))
		}
		if len(rightE) > 0 {
			right.runs = append(right.runs, newMemRun(rightE))
		}
		t.retire()
		return left, right, nil
	}
	lb, rb, lrun, rrun, err := t.backing.Split(row, leftE, rightE)
	if err != nil {
		return nil, nil, err
	}
	left.backing, right.backing = lb, rb
	if lrun != nil {
		left.runs = append(left.runs, diskRun{lrun})
	}
	if rrun != nil {
		right.runs = append(right.runs, diskRun{rrun})
	}
	t.retire()
	return left, right, nil
}

// retire marks the tablet split-away: a compaction scheduler holding a
// stale pointer must not fold it once its halves own the data. Caller
// holds compactMu.
func (t *Tablet) retire() {
	t.mu.Lock()
	t.retired = true
	t.flushCond.Broadcast()
	t.mu.Unlock()
}
