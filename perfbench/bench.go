package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"graphulo"
)

// run is one workload execution: the ops it timed, how they ended and,
// when traced, the spans and counter deltas around each call.
type run struct {
	name  string
	seed  uint64
	span  time.Duration // --seconds: the measured budget
	tr    *tracer
	root  *liveSpan
	db    *graphulo.DB // the cluster ops read counters from
	dataD string       // scratch directory for this run's files

	mu       sync.Mutex
	lat      map[string][]float64 // op kind → seconds per call
	out      outcome
	perKind  map[string]*kindTotals
	mismatch []string // first few oracle disagreements, for the report
	nextNS   float64  // traced runs: time inside EntryStream.Next

	// Traced runs only: each call's counter deltas by op kind, and
	// per-query scheduler statistics by "kind:stat".
	calls     map[string][]map[string]float64
	queryStat map[string][]float64

	queueWait0, queries0 int64  // tenant totals when the body started
	kernelTenant         string // tenant the kernel phase runs under
	batchEdges           int    // edges per ingest batch
}

// kindTotals sums the counter deltas of every call of one op kind.
type kindTotals struct {
	calls   int
	results float64
	wall    time.Duration
	delta   map[string]float64
}

func newRun(name string, seed uint64, seconds int, traced bool, dataDir string) *run {
	r := &run{
		name: name, seed: seed, span: time.Duration(seconds) * time.Second, dataD: dataDir,
		lat: map[string][]float64{}, perKind: map[string]*kindTotals{},
		calls: map[string][]map[string]float64{}, queryStat: map[string][]float64{},
	}
	if traced {
		r.tr = newTracer()
		r.root = r.tr.start(nil, name, "workload")
	}
	return r
}

// phase opens a span for one phase of the workload.
func (r *run) phase(name string) *liveSpan { return r.tr.start(r.root, name, "phase") }

// result is what an op returns: how many result entries it produced (for
// the scanned-per-result ratio) and a check, run after the clock stops,
// that compares the answer with the in-memory oracle.
type result struct {
	entries int
	check   func() error
}

// op times one call into the system under test. kind names the op for
// latency statistics, layer the package the call enters. Errors of the
// scheduler's refusal types count as refused, other errors as errored,
// and a failed oracle check as mismatched; all three are failures.
func (r *run) op(parent *liveSpan, kind, layer string, fn func() (result, error)) bool {
	var before counterSet
	if r.tr != nil {
		before = readCounters(r.db)
	}
	sp := r.tr.start(parent, kind, layer)
	t0 := time.Now()
	res, err := fn()
	d := time.Since(t0)
	var delta map[string]float64
	if r.tr != nil {
		delta = readCounters(r.db).deltaSince(before)
	}
	sp.end(delta)

	var p outcome
	p.attempted = 1
	ok := false
	switch {
	case isRefusal(err):
		p.refused = 1
	case err != nil:
		p.errored = 1
		r.note(fmt.Sprintf("%s: %v", kind, err))
	default:
		if res.check != nil {
			if cerr := res.check(); cerr != nil {
				p.mismatched = 1
				r.note(fmt.Sprintf("%s: %v", kind, cerr))
				break
			}
		}
		ok = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.add(p)
	if ok {
		r.lat[kind] = append(r.lat[kind], d.Seconds())
	}
	if r.tr != nil {
		kt := r.perKind[kind]
		if kt == nil {
			kt = &kindTotals{delta: map[string]float64{}}
			r.perKind[kind] = kt
		}
		r.calls[kind] = append(r.calls[kind], delta)
		kt.calls++
		kt.results += float64(res.entries)
		kt.wall += d
		for k, v := range delta {
			kt.delta[k] += v
		}
	}
	return ok
}

func isRefusal(err error) bool {
	var ae *graphulo.AdmissionError
	var be *graphulo.BudgetError
	return errors.As(err, &ae) || errors.As(err, &be)
}

func (r *run) note(msg string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.mismatch) < 8 {
		r.mismatch = append(r.mismatch, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAILED", msg)
}

// latencies returns a copy of the recorded latencies of one op kind.
func (r *run) latencies(kind string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.lat[kind]...)
}

// must records a set-up or bookkeeping failure: the run cannot be
// measured, so it aborts without a result line.
func must(err error, what string) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		os.Exit(1)
	}
}
