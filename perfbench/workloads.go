package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"graphulo"
)

const (
	kernelScale = 8 // 256 vertices, the paper-kernel graph
	splitParts  = 4
	setupReps   = 5 // set-up runs per process; setup_s is their median
)

// cluster is one set-up cluster with the graphs a workload reads.
type cluster struct {
	db      *graphulo.DB
	dir     string         // data directory of a durable cluster
	kernel  *graphSet      // the graph the paper kernels run on
	main    *graphSet      // the graph lookups, BFS and scans read
	pending graphulo.Graph // edges the body ingests
	// kdb, when set, is a second, in-memory cluster holding the kernel
	// graph (see durableKernelScale and setupServe for why).
	kdb *graphulo.DB
	// heldBytes is what the store holds for main's edges: data-dir
	// bytes when durable, retained Go heap when in memory.
	heldBytes int64
}

func (c *cluster) kernelDB() *graphulo.DB {
	if c.kdb != nil {
		return c.kdb
	}
	return c.db
}

func (c *cluster) close() {
	for _, db := range []*graphulo.DB{c.db, c.kdb} {
		if db == nil {
			continue
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: close:", err)
		}
	}
	if c.dir != "" {
		os.RemoveAll(c.dir)
	}
}

// workload is one named traffic mix.
type workload struct {
	name  string
	setup func(r *run, rep int) (*cluster, error)
	body  func(r *run, c *cluster, rng *rand.Rand)
}

var workloads = []workload{
	{"paper-kernels", setupPaper, bodyPaper},
	{"durable-io", setupDurable, bodyDurable},
	{"serve-mixed", setupServe, bodyServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// heapAfterGC is the live Go heap after a full collection.
func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// timed accumulates the wall time of set-up steps, leaving out the
// bookkeeping between them (heap measurements, oracle construction).
type timed struct{ d time.Duration }

func (t *timed) do(fn func() error) error {
	t0 := time.Now()
	err := fn()
	t.d += time.Since(t0)
	return err
}

// loadGraph creates a graph's tables, ingests g, and pre-splits A/Aᵀ.
func loadGraph(db *graphulo.DB, name string, g graphulo.Graph) (*graphulo.TableGraph, error) {
	tg, err := db.CreateGraph(name)
	if err != nil {
		return nil, err
	}
	if err := tg.Ingest(g); err != nil {
		return nil, fmt.Errorf("ingest %s: %w", name, err)
	}
	return tg, splitGraph(db, tg, g.N, splitParts)
}

// paper-kernels: in-memory inproc cluster, RMAT scale 8; cycles of
// scans, HasEdge probes, BFS, the paper's kernels in a fixed order, and
// an ingest of a throwaway copy, all on the same graph.
func setupPaper(r *run, rep int) (*cluster, error) {
	var t timed
	var g graphulo.Graph
	var db *graphulo.DB
	err := t.do(func() (err error) {
		g = rmat(kernelScale, graphSeed)
		db, err = graphulo.Open(graphulo.ClusterConfig{TabletServers: 4})
		return err
	})
	if err != nil {
		return nil, err
	}
	heap0 := heapAfterGC()
	var tg *graphulo.TableGraph
	if err := t.do(func() (err error) { tg, err = loadGraph(db, "G", g); return err }); err != nil {
		return nil, err
	}
	c := &cluster{db: db, heldBytes: heapAfterGC() - heap0}
	r.recordSetup(t.d)
	c.kernel = newGraphSet(tg, g, true)
	c.main = c.kernel
	return c, nil
}

func bodyPaper(r *run, c *cluster, rng *rand.Rand) {
	r.batchEdges = 256
	ps := probes(c.main, rng, 12000)
	// BFS starts from every vertex with an edge, in seeded order, so
	// its median is the graph's, not a sample's.
	src := append([]int(nil), c.main.live...)
	rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	perCycle := (len(src) + 7) / 8
	g := shuffled(c.main.g, rng)
	// Eight cycles make 12,000 probes and a BFS from each live vertex
	// (over 200 here): 120 beyond the lookup p99 and 20 beyond the BFS
	// p90.
	r.cycles(r.span, 8, func(sp *liveSpan, i int) {
		for j := 0; j < 10; j++ {
			r.scan(sp, c.db, c.main)
		}
		for j := 0; j < 1500; j++ {
			r.hasEdge(sp, c.main, ps[(i*1500+j)%len(ps)])
		}
		for j := 0; j < perCycle; j++ {
			r.bfs(sp, c.main, src[(i*perCycle+j)%len(src)], "")
		}
		r.kernelRound(sp, c.db, c.kernel, i, "")
		r.ingestCopy(sp, c.db, g, i)
	})
}

// ingestCopy ingests g into a fresh pre-split graph, records the rate,
// and drops the copy.
func (r *run) ingestCopy(parent *liveSpan, db *graphulo.DB, g graphulo.Graph, i int) {
	name := fmt.Sprintf("I%d", i)
	tg, err := db.CreateGraph(name)
	must(err, "create "+name)
	must(splitGraph(db, tg, g.N, splitParts), "split "+name)
	d := r.ingest(parent, db, tg, g, r.batchEdges, 2)
	r.addRate("ingest", float64(len(g.Edges))/d.Seconds())
	a, at, deg := tg.Tables()
	for _, t := range []string{a, at, deg} {
		dropTable(db, t)
	}
}

// durable-io: a durable cluster with WAL fsync on, a 1 MiB block cache
// against several MiB on disk, 1 MiB memtables and background
// compaction. Ingest of RMAT scale 12 from two writers is measured,
// then scans, HasEdge probes and BFS read it back, then throwaway
// copies are ingested; the paper kernels run on a scale-7 graph in a
// second, in-memory cluster.
func durableConfig(dir string) graphulo.ClusterConfig {
	return graphulo.ClusterConfig{
		TabletServers:      4,
		DataDir:            dir,
		NoSync:             false,
		BlockCacheBytes:    1 << 20,
		MemtableFlushBytes: 1 << 20,
		MaxRunsPerTablet:   durableMaxRuns,
	}
}

const (
	durableScale = 12 // 4,096 vertices, 48,513 edges
	durableBatch = 512
	// The kernels run on a second, in-memory cluster: through the
	// fsync'd store their timings follow the shared disk (PageRank's
	// spread between runs reached 39%), which would leave no bound a
	// regression could be judged by. Scale 7 keeps eight rounds short.
	durableKernelScale = 7
	durableMaxRuns     = 4
)

func setupDurable(r *run, rep int) (*cluster, error) {
	var t timed
	dir := filepath.Join(r.dataD, fmt.Sprintf("durable-%d", rep))
	var g, kg graphulo.Graph
	var db *graphulo.DB
	err := t.do(func() (err error) {
		g, kg = rmat(durableScale, graphSeed), rmat(durableKernelScale, graphSeed)
		db, err = graphulo.Open(durableConfig(dir))
		return err
	})
	if err != nil {
		return nil, err
	}
	c := &cluster{db: db, dir: dir}
	var ktg, tg *graphulo.TableGraph
	err = t.do(func() (err error) {
		if tg, err = db.CreateGraph("G"); err != nil {
			return err
		}
		if err := splitGraph(db, tg, g.N, splitParts); err != nil {
			return err
		}
		if c.kdb, err = graphulo.Open(graphulo.ClusterConfig{TabletServers: 4}); err != nil {
			return err
		}
		ktg, err = loadGraph(c.kdb, "K", kg)
		return err
	})
	if err != nil {
		c.close()
		return nil, err
	}
	r.recordSetup(t.d)
	c.pending = shuffled(g, randFor(r.seed, 1))
	c.kernel = newGraphSet(ktg, kg, true)
	c.main = newGraphSet(tg, g, false)
	return c, nil
}

func bodyDurable(r *run, c *cluster, rng *rand.Rand) {
	r.batchEdges = durableBatch
	sp := r.phase("ingest")
	before, err := dirBytes(c.dir)
	must(err, "size data dir")
	d := r.ingest(sp, c.db, c.main.tg, c.pending, durableBatch, 2)
	after, err := dirBytes(c.dir)
	must(err, "size data dir")
	c.heldBytes = after - before
	r.addRate("ingest", float64(len(c.pending.Edges))/d.Seconds())
	sp.end(nil)

	// Background compaction of the fresh runs would overlap the first
	// cycle's reads; start them from the scheduler's steady state.
	must(settle(c.db, c.main), "settle compaction")

	ps := probes(c.main, rng, 2400)
	src := sources(c.main.adj, c.main.live, rng, 320)
	// Eight cycles make 2,400 probes and 320 BFS: 24 beyond the lookup
	// p99 and 32 beyond the BFS p90.
	r.cycles(r.span, 8, func(sp *liveSpan, i int) {
		for j := 0; j < 3; j++ {
			r.scan(sp, c.db, c.main)
		}
		for j := 0; j < 300; j++ {
			r.hasEdge(sp, c.main, ps[(i*300+j)%len(ps)])
		}
		for j := 0; j < 40; j++ {
			r.bfs(sp, c.main, src[(i*40+j)%len(src)], "")
		}
		r.withDB(c.kdb, func() { r.kernelRound(sp, c.kdb, c.kernel, i, "") })
	})
	// Throwaway copies of the load, after the reads so that their
	// flushes and compactions overlap none of them: with the first load,
	// five ingest samples.
	sp = r.phase("ingest copies")
	for i := 0; i < 4; i++ {
		r.ingestCopy(sp, c.db, c.pending, i)
	}
	sp.end(nil)
}

// settle waits until background compaction has brought every tablet of
// the graph's tables within the scheduler's run bound.
func settle(db *graphulo.DB, gs *graphSet) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, t := range []string{gs.a, gs.at} {
		for {
			runs, err := db.TabletRuns(t)
			if err != nil {
				return err
			}
			if maxInt(runs) <= durableMaxRuns {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s still has tablets over %d runs: %v", t, durableMaxRuns, runs)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// serve-mixed: tcp transport, two passes at a time, tenants t0 (weight
// 2) and t1. The base graph is RMAT scale 10 on even vertex ids; t1
// streams a seeded RMAT graph on odd ids, which never touches an even
// vertex, so every read stays checkable against the base graph.
const (
	serveScale      = 10
	serveStream     = 12
	serveBatch      = 64
	serveBFSEvery   = 20 // t0: one BFS per this many ops
	serveBFSBatches = 4  // t1: one BFS per this many batches
)

func serveConfig() graphulo.ClusterConfig {
	return graphulo.ClusterConfig{
		TabletServers:       4,
		Transport:           "tcp",
		MaxConcurrentPasses: 2,
		TenantWeights:       map[string]int{"t0": 2, "t1": 1},
	}
}

// setupServe opens the serving cluster and, for the kernels, a second
// tcp cluster without the pass limit: with MaxConcurrentPasses 2, fused
// kTruss and TriangleCount over pre-split tables hang.
func setupServe(r *run, rep int) (*cluster, error) {
	var t timed
	var base, stream, kg graphulo.Graph
	var db, kdb *graphulo.DB
	err := t.do(func() (err error) {
		base = remap(rmat(serveScale, graphSeed), 0)
		stream = shuffled(remap(rmat(serveStream, r.seed), 1), randFor(r.seed, 1))
		kg = rmat(kernelScale, graphSeed)
		if db, err = graphulo.Open(serveConfig()); err != nil {
			return err
		}
		kdb, err = graphulo.Open(graphulo.ClusterConfig{TabletServers: 4, Transport: "tcp"})
		return err
	})
	if err != nil {
		return nil, err
	}
	c := &cluster{db: db, kdb: kdb, pending: stream}
	heap0 := heapAfterGC()
	var tg *graphulo.TableGraph
	if err := t.do(func() (err error) { tg, err = loadGraph(db, "G", base); return err }); err != nil {
		c.close()
		return nil, err
	}
	c.heldBytes = heapAfterGC() - heap0
	var ktg *graphulo.TableGraph
	if err := t.do(func() (err error) { ktg, err = loadGraph(kdb, "K", kg); return err }); err != nil {
		c.close()
		return nil, err
	}
	r.recordSetup(t.d)
	c.kernel = newGraphSet(ktg, kg, true)
	c.main = newGraphSet(tg, base, false)
	return c, nil
}

func bodyServe(r *run, c *cluster, rng *rand.Rand) {
	r.batchEdges, r.kernelTenant = serveBatch, "t0"
	l := newServeLoad(c, rng)
	// Five cycles of 200 probes and 20 BFS make 1,000 probes and 100
	// BFS: 10 beyond the lookup p99 and the BFS p90.
	r.cycles(r.span, 5, func(sp *liveSpan, i int) {
		r.withDB(c.kernelDB(), func() {
			// Ordered full-table scans over several tablets hang under
			// the pass limit too, so they read the kernel cluster.
			for j := 0; j < 5; j++ {
				r.scan(sp, c.kernelDB(), c.kernel)
			}
			r.kernelRound(sp, c.kernelDB(), c.kernel, i, r.kernelTenant)
		})
		r.serveSlice(sp, c, l, r.span/6, 200, 20)
	})
	// Every stream edge t1 acknowledged must be in A, beside the base.
	r.op(nil, "flush", "store", func() (result, error) {
		want := 2 * (len(c.main.g.Edges) + len(l.ingested))
		return result{check: func() error { return checkEntryCount(c.db, c.main.a, want) }},
			c.db.Connector().TableOperations().Flush(c.main.a)
	})
}

// serveLoad is the closed loop's state across slices: the probe and BFS
// source lists and the position in t1's edge stream.
type serveLoad struct {
	ps               []probe
	t0Src, t1Src     []int
	bs               [][]graphulo.Edge
	probe, t0, t1, b int
	ingested         map[graphulo.Edge]bool
}

func newServeLoad(c *cluster, rng *rand.Rand) *serveLoad {
	return &serveLoad{
		ps:       probes(c.main, rng, 1000),
		t0Src:    sources(c.main.adj, c.main.live, rng, 100),
		t1Src:    sources(c.main.adj, c.main.live, rng, 100),
		bs:       batches(c.pending.Edges, serveBatch),
		ingested: map[graphulo.Edge]bool{},
	}
}

// serveSlice runs the closed loop with its two clients for one slice:
// t0 probes HasEdge with a BFS every serveBFSEvery-th op; t1 ingests
// odd-id batches with a BFS every serveBFSBatches-th batch. The slice
// ends once budget has passed and t0 has made minProbes probes and
// minBFS BFS calls; its ingest rate is t1's acknowledged edges over the
// slice.
func (r *run) serveSlice(parent *liveSpan, c *cluster, l *serveLoad, budget time.Duration, minProbes, minBFS int) {
	stop := make(chan struct{})
	start := time.Now()
	var wg sync.WaitGroup
	acked := 0
	wg.Add(1)
	go func() { // t1: writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			b := l.bs[l.b%len(l.bs)]
			l.b++
			if r.op(parent, "ingest_batch", "accumulo", func() (result, error) {
				return result{entries: len(b)}, c.main.tg.Ingest(graphulo.Graph{N: c.pending.N, Edges: b})
			}) {
				acked += len(b)
				for _, e := range b {
					l.ingested[e] = true
				}
			}
			if l.b%serveBFSBatches == 0 {
				r.bfs(parent, c.main, l.t1Src[l.t1%len(l.t1Src)], "t1")
				l.t1++
			}
		}
	}()
	probes, bfs := 0, 0
	for i := 1; probes < minProbes || bfs < minBFS || time.Since(start) < budget; i++ { // t0: reader
		if i%serveBFSEvery == 0 {
			r.bfs(parent, c.main, l.t0Src[l.t0%len(l.t0Src)], "t0")
			l.t0++
			bfs++
		} else {
			r.hasEdge(parent, c.main, l.ps[l.probe%len(l.ps)])
			l.probe++
			probes++
		}
	}
	close(stop)
	wg.Wait()
	r.addRate("ingest", float64(acked)/time.Since(start).Seconds())
}

// withDB makes db the cluster op counters are read from while fn runs;
// no other op may run meanwhile.
func (r *run) withDB(db *graphulo.DB, fn func()) {
	prev := r.db
	r.db = db
	defer func() { r.db = prev }()
	fn()
}

// recordSetup keeps one set-up duration.
func (r *run) recordSetup(d time.Duration) { r.addRate("setup", d.Seconds()) }

// addRate records one sample of a per-run quantity (set-up time,
// ingest rate) whose median the run reports.
func (r *run) addRate(kind string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat["rate:"+kind] = append(r.lat["rate:"+kind], v)
}
