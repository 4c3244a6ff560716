package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphulo"
)

// Span is one timed interval of the benchmark's own code: the workload,
// a phase, or one call into a layer's public functions. Spans of one
// top-level op share a Trace id; Parent links a span to the one that
// caused it.
type Span struct {
	ID       int64              `json:"id"`
	Parent   int64              `json:"parent,omitempty"`
	Trace    int64              `json:"trace"`
	Name     string             `json:"name"`
	Layer    string             `json:"layer"`
	Start    time.Duration      `json:"start_ns"`
	End      time.Duration      `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// liveSpan is a started span; end records it.
type liveSpan struct {
	t *tracer
	s Span
}

// start opens a span under parent (nil for a root, which starts a new
// trace).
func (t *tracer) start(parent *liveSpan, name, layer string) *liveSpan {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	s := Span{ID: id, Trace: id, Name: name, Layer: layer, Start: time.Since(t.t0)}
	if parent != nil {
		s.Parent, s.Trace = parent.s.ID, parent.s.Trace
	}
	return &liveSpan{t: t, s: s}
}

// end closes the span, attaching the counter deltas measured around it.
func (l *liveSpan) end(counters map[string]float64) {
	if l == nil {
		return
	}
	l.s.End = time.Since(l.t.t0)
	l.s.Counters = counters
	l.t.mu.Lock()
	l.t.spans = append(l.t.spans, l.s)
	l.t.mu.Unlock()
}

func (t *tracer) snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap one another (calls made
// from several goroutines), so the covered part is the length of the
// union of the children's intervals clipped to the parent's.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals within
// [lo, hi].
func covered(lo, hi time.Duration, spans []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelfTimes sums self time by layer.
func layerSelfTimes(spans []Span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// counterSet is a point-in-time reading of every counter the benchmark
// attributes to a call: the cluster's global counters (DB.Metrics and
// DB.ScanMetrics) and the Go runtime's.
type counterSet struct {
	wire, rpcs, written, scanned int64
	scan                         graphulo.ScanStats
	gcCPU, totalCPU              float64
	allocBytes, allocObjs        uint64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readCounters(db *graphulo.DB) counterSet {
	var c counterSet
	c.wire, c.rpcs, c.written, c.scanned = db.Metrics()
	c.scan = db.ScanMetrics()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.gcCPU, c.totalCPU = sampleFloat(s[0]), sampleFloat(s[1])
	c.allocBytes, c.allocObjs = sampleUint(s[2]), sampleUint(s[3])
	return c
}

func sampleFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

func sampleUint(s metrics.Sample) uint64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return s.Value.Uint64()
	}
	return 0
}

// deltaSince returns the named counter movements from a to c.
func (c counterSet) deltaSince(a counterSet) map[string]float64 {
	return map[string]float64{
		"wire_bytes":              float64(c.wire - a.wire),
		"rpcs":                    float64(c.rpcs - a.rpcs),
		"entries_written":         float64(c.written - a.written),
		"entries_scanned":         float64(c.scanned - a.scanned),
		"cache_hits":              float64(c.scan.CacheHits - a.scan.CacheHits),
		"cache_misses":            float64(c.scan.CacheMisses - a.scan.CacheMisses),
		"bloom_negatives":         float64(c.scan.BloomNegatives - a.scan.BloomNegatives),
		"colq_bloom_negatives":    float64(c.scan.ColQBloomNegatives - a.scan.ColQBloomNegatives),
		"locality_blocks_skipped": float64(c.scan.LocalityBlocksSkipped - a.scan.LocalityBlocksSkipped),
		"memtable_freezes":        float64(c.scan.MemtableFreezes - a.scan.MemtableFreezes),
		"write_stall_ns":          float64(c.scan.WriteStallNanos - a.scan.WriteStallNanos),
		"tablet_scans":            float64(c.scan.TabletScans - a.scan.TabletScans),
		"tablets_pruned":          float64(c.scan.TabletsPrunedByRange - a.scan.TabletsPrunedByRange),
		"partial_products_folded": float64(c.scan.PartialProductsFolded - a.scan.PartialProductsFolded),
		"scratch_tables":          float64(c.scan.ScratchTablesCreated - a.scan.ScratchTablesCreated),
		"shared_scan_folds":       float64(c.scan.SharedScanFolds - a.scan.SharedScanFolds),
		"gc_cpu_s":                c.gcCPU - a.gcCPU,
		"cpu_s":                   c.totalCPU - a.totalCPU,
		"alloc_bytes":             float64(c.allocBytes - a.allocBytes),
		"allocs":                  float64(c.allocObjs - a.allocObjs),
	}
}
