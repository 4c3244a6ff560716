package accumulo

// Integration tests for the query scheduler: shared-scan folding against
// real tablet passes, typed admission rejection, and budget exhaustion
// surfacing through the streaming scan path. The fold tests pin the
// physical-pass count by parking a blocker scan on the only pass slot,
// queueing the scans under test behind it, and only then releasing it.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"graphulo/internal/sched"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// waitUntil polls cond to true, failing the test after a generous
// deadline — the conditions are scheduler state transitions that land
// within microseconds unless something is genuinely wedged.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// foldCluster builds a single-endpoint cluster with one pass slot, a
// target table F, and a blocker table BL deep enough that an unconsumed
// scan of it parks on the slot indefinitely (its worker fills the
// cursor's one-batch buffer and blocks mid-relay).
func foldCluster(t *testing.T) (*MiniCluster, *Connector) {
	t.Helper()
	mc := NewMiniCluster(Config{TabletServers: 1, WireBatch: 4, MaxConcurrentPasses: 1})
	conn := mc.Connector()
	for table, rows := range map[string]int{"F": 40, "BL": 64} {
		if err := conn.TableOperations().Create(table); err != nil {
			t.Fatal(err)
		}
		w, err := conn.CreateBatchWriter(table, BatchWriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := w.PutFloat(fmt.Sprintf("r%04d", i), "", "q", float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return mc, conn
}

// holdPassSlot opens an unconsumed scan of BL and confirms it holds the
// cluster's only pass slot (its first batch arriving proves the pass is
// executing). The returned release closes the stream, freeing the slot.
func holdPassSlot(t *testing.T, conn *Connector) (release func()) {
	t.Helper()
	sc, err := conn.CreateScanner("BL")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatalf("blocker scan produced nothing: %v", st.Err())
	}
	return st.Close
}

// TestSharedScanFoldOnePhysicalPass pins the folding contract: two
// concurrent whole-table scans that queue for the same tablet execute
// exactly one physical tablet pass between them, both return the full
// result, and the fold is counted once.
func TestSharedScanFoldOnePhysicalPass(t *testing.T) {
	mc, conn := foldCluster(t)
	sc, err := conn.CreateScanner("F")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 40 {
		t.Fatalf("reference scan returned %d entries, want 40", len(want))
	}
	foldsBase := mc.Counts()[telemetry.SharedScanFolds]

	unblock := holdPassSlot(t, conn)
	results := make([][]skv.Entry, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := conn.CreateScanner("F")
			if err != nil {
				errs[i] = err
				return
			}
			st, err := sc.Stream()
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = st.Collect()
		}(i)
	}
	// Both scans must be in the fold group — one queued for the slot,
	// one folded onto it — before the slot frees, or there is nothing to
	// pin.
	waitUntil(t, "second scan to fold onto the first",
		func() bool { return mc.Counts()[telemetry.SharedScanFolds] == foldsBase+1 })
	waitUntil(t, "fold leader to queue for the pass slot",
		func() bool { return mc.Scheduler().PassesQueued() >= 1 })
	passesBase := mc.Counts()[telemetry.TabletScans]
	unblock()
	wg.Wait()

	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("folded scan %d failed: %v", i, errs[i])
		}
		if len(results[i]) != len(want) {
			t.Fatalf("folded scan %d returned %d entries, want %d", i, len(results[i]), len(want))
		}
		for j := range want {
			if skv.Compare(results[i][j].K, want[j].K) != 0 || string(results[i][j].V) != string(want[j].V) {
				t.Fatalf("folded scan %d entry %d = %v, want %v", i, j, results[i][j], want[j])
			}
		}
	}
	if d := mc.Counts()[telemetry.TabletScans] - passesBase; d != 1 {
		t.Errorf("two folded scans executed %d physical tablet passes, want exactly 1", d)
	}
	if d := mc.Counts()[telemetry.SharedScanFolds] - foldsBase; d != 1 {
		t.Errorf("SharedScanFolds advanced by %d, want 1", d)
	}
}

// TestFoldSubscriberEarlyClose: a folded subscriber that closes its
// stream mid-fold neither wedges the pass nor perturbs the co-subscriber,
// which still receives the complete result.
func TestFoldSubscriberEarlyClose(t *testing.T) {
	mc, conn := foldCluster(t)
	sc, err := conn.CreateScanner("F")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Entries()
	if err != nil {
		t.Fatal(err)
	}
	foldsBase := mc.Counts()[telemetry.SharedScanFolds]

	unblock := holdPassSlot(t, conn)
	// Sequence the joins so the surviving stream is deterministically the
	// fold leader: st1's worker queues for the slot first, st2 folds on.
	sc1, err := conn.CreateScanner("F")
	if err != nil {
		t.Fatal(err)
	}
	st1, err := sc1.Stream()
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "first scan to queue for the pass slot",
		func() bool { return mc.Scheduler().PassesQueued() >= 1 })
	sc2, err := conn.CreateScanner("F")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sc2.Stream()
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "second scan to fold onto the first",
		func() bool { return mc.Counts()[telemetry.SharedScanFolds] == foldsBase+1 })
	// The follower's Close blocks until the leader drops it from the
	// fold, which needs the pass to run — release the slot concurrently.
	var closed sync.WaitGroup
	closed.Add(1)
	go func() {
		defer closed.Done()
		st2.Close()
	}()
	unblock()
	got, err := st1.Collect()
	if err != nil {
		t.Fatalf("surviving subscriber failed: %v", err)
	}
	closed.Wait()
	if len(got) != len(want) {
		t.Fatalf("surviving subscriber got %d entries, want %d", len(got), len(want))
	}
	for j := range want {
		if skv.Compare(got[j].K, want[j].K) != 0 {
			t.Fatalf("surviving subscriber entry %d = %v, want %v", j, got[j].K, want[j].K)
		}
	}
}

// TestAdmissionRejectionTyped: with one query slot and no wait queue,
// the second concurrent kernel query is rejected with a typed
// *sched.AdmissionError, never started, and the slot frees cleanly.
func TestAdmissionRejectionTyped(t *testing.T) {
	mc := NewMiniCluster(Config{MaxConcurrentQueries: 1, MaxQueuedQueries: -1})
	queriesBase := len(mc.Telemetry().Snapshot())
	_, finish, err := mc.StartKernelQuery("Hold", "acme")
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Scheduler().QueriesRunning(); got != 1 {
		t.Fatalf("QueriesRunning = %d, want 1", got)
	}
	_, _, err = mc.StartKernelQuery("Rejected", "acme")
	var adm *sched.AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("second query error = %v, want *sched.AdmissionError", err)
	}
	if adm.Tenant != "acme" || adm.Limit != 1 {
		t.Fatalf("AdmissionError = %+v, want tenant acme, limit 1", adm)
	}
	// The rejected query must not have left a telemetry record.
	if got := len(mc.Telemetry().Snapshot()); got != queriesBase+1 {
		t.Fatalf("telemetry records %d queries, want %d (rejection must not start one)", got, queriesBase+1)
	}
	finish(nil)
	if got := mc.Scheduler().QueriesRunning(); got != 0 {
		t.Fatalf("QueriesRunning after finish = %d, want 0", got)
	}
	_, finish2, err := mc.StartKernelQuery("After", "acme")
	if err != nil {
		t.Fatalf("admission after release failed: %v", err)
	}
	finish2(nil)
}

// TestScanBudgetSurfacesThroughStream: a query over its scan-entry
// budget is cancelled at the counting site and the typed error reaches
// the consumer through EntryStream.Err, well before the table is
// exhausted.
func TestScanBudgetSurfacesThroughStream(t *testing.T) {
	mc := NewMiniCluster(Config{WireBatch: 4, ScanEntryBudget: 10})
	conn := mc.Connector()
	if err := conn.TableOperations().Create("B"); err != nil {
		t.Fatal(err)
	}
	w, err := conn.CreateBatchWriter("B", BatchWriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const rows = 400
	for i := 0; i < rows; i++ {
		if err := w.PutFloat(fmt.Sprintf("r%04d", i), "", "q", 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	q, finish, err := mc.StartKernelQuery("BudgetedScan", "acme")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := conn.CreateScanner("B")
	if err != nil {
		t.Fatal(err)
	}
	sc.SetTrace(q)
	st, err := sc.Stream()
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Collect()
	finish(err)
	var be *sched.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("drained stream error = %v, want *sched.BudgetError", err)
	}
	if be.Resource != "scan entries" || be.Tenant != "acme" || be.Limit != 10 {
		t.Fatalf("BudgetError = %+v, want scan entries / acme / limit 10", be)
	}
	if len(got) >= rows {
		t.Fatalf("budget of 10 entries did not stop a %d-entry scan (got %d)", rows, len(got))
	}
}
