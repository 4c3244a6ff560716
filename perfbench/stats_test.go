package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"graphulo"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, permille int
		want        float64
		ok          bool
	}{
		{99, 900, 0, false}, // 9 beyond p90: omitted, not guessed
		{100, 900, 90, true},
		{999, 990, 0, false},
		{1000, 990, 990, true},
		{19, 500, 0, false},
		{21, 500, 11, true},
		{0, 500, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.permille)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, %d‰) = %v, %v; want %v, %v", c.n, c.permille, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

// Two goroutines' children overlap each other inside the parent, and
// one runs past the parent's end: the covered part is the union of the
// intervals clipped to the parent.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: 1, Layer: "phase", Start: 0, End: 100},
		{ID: 2, Parent: 1, Trace: 1, Layer: "core", Start: 10, End: 50}, // goroutine A
		{ID: 3, Parent: 1, Trace: 1, Layer: "core", Start: 30, End: 70}, // goroutine B
		{ID: 4, Parent: 1, Trace: 1, Layer: "store", Start: 90, End: 120},
		{ID: 5, Parent: 2, Trace: 1, Layer: "skv", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 60 - 10, 2: 40 - 5, 3: 40, 4: 30, 5: 5}
	for id, w := range want {
		if int64(self[id]) != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	layers := layerSelfTimes(spans)
	if layers["core"] != 75 || layers["phase"] != 30 || layers["store"] != 30 || layers["skv"] != 5 {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestTracerRecordsSpansFromTwoGoroutines(t *testing.T) {
	tr := newTracer()
	root := tr.start(nil, "workload", "workload")
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				tr.start(root, "op", "core").end(map[string]float64{"rpcs": 1})
			}
		}()
	}
	<-done
	<-done
	root.end(nil)
	spans := tr.snapshot()
	if len(spans) != 201 {
		t.Fatalf("%d spans, want 201", len(spans))
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
		if s.Trace != root.s.ID {
			t.Fatalf("span %d in trace %d, want %d", s.ID, s.Trace, root.s.ID)
		}
		if s.ID != root.s.ID && s.Parent != root.s.ID {
			t.Fatalf("span %d has parent %d, want %d", s.ID, s.Parent, root.s.ID)
		}
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
	if self := selfTimes(spans)[root.s.ID]; self < 0 {
		t.Fatalf("negative root self time %v", self)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.start(nil, "x", "y")
	sp.end(nil)
	if sp != nil || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

// Refused, errored and mismatched ops all count as failed against
// attempted ops; only correct answers contribute latencies.
func TestFailedFracAccounting(t *testing.T) {
	r := newRun("test", 1, 1, false, t.TempDir())
	refused := fmt.Errorf("kernel: %w", &graphulo.AdmissionError{})
	over := fmt.Errorf("kernel: %w", &graphulo.BudgetError{})
	r.op(nil, "a", "core", func() (result, error) { return result{}, refused })
	r.op(nil, "a", "core", func() (result, error) { return result{}, over })
	r.op(nil, "a", "core", func() (result, error) { return result{}, errors.New("broken pipe") })
	r.op(nil, "a", "core", func() (result, error) {
		return result{check: func() error { return errors.New("wrong answer") }}, nil
	})
	for i := 0; i < 4; i++ {
		r.op(nil, "a", "core", func() (result, error) { return result{check: func() error { return nil }}, nil })
	}
	o := r.out
	if o.attempted != 8 || o.refused != 2 || o.errored != 1 || o.mismatched != 1 {
		t.Fatalf("outcome = %+v", o)
	}
	if o.failed() != 4 || o.failedFrac() != 0.5 {
		t.Fatalf("failed = %d, failed_frac = %v; want 4, 0.5", o.failed(), o.failedFrac())
	}
	if n := len(r.latencies("a")); n != 4 {
		t.Fatalf("%d latencies recorded, want 4 (successes only)", n)
	}
	if (outcome{}).failedFrac() != 0 {
		t.Fatal("failed_frac of no ops is not 0")
	}
}

func TestStoredBytesPerEdge(t *testing.T) {
	dir := t.TempDir()
	must(os.MkdirAll(filepath.Join(dir, "wal"), 0o755), "mkdir")
	must(os.WriteFile(filepath.Join(dir, "MANIFEST"), make([]byte, 100), 0o644), "write")
	must(os.WriteFile(filepath.Join(dir, "wal", "1.wal"), make([]byte, 300), 0o644), "write")
	n, err := dirBytes(dir)
	if err != nil || n != 400 {
		t.Fatalf("dirBytes = %d, %v; want 400", n, err)
	}
	got, err := storedBytesPerEdge(n, 50)
	if err != nil || got != 8 {
		t.Fatalf("storedBytesPerEdge = %v, %v; want 8", got, err)
	}
	if _, err := storedBytesPerEdge(n, 0); err == nil {
		t.Fatal("no error for zero edges")
	}
	if _, err := storedBytesPerEdge(0, 10); err == nil {
		t.Fatal("no error for an empty store")
	}
}
