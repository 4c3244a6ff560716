package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphulo/internal/algo"
	"graphulo/internal/rfile"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
	"graphulo/internal/tablet"
	"graphulo/internal/transport"
	"graphulo/internal/wal"
)

// Layer replays time one layer's public functions directly, on the
// workload's own entries, so a kernel's time can be split into count ×
// unit cost per layer.

const (
	wireBatch    = 4096 // entries per RPC, the cluster default
	replayFloor  = 200 * time.Millisecond
	walAppends   = 500 // per goroutine; two goroutines
	seekProbes   = 2000
	transportOps = 1000
)

type replayResult struct {
	order         []string
	values        map[string]float64
	tcp           bool    // the workload's cluster runs over tcp
	bytesPerEntry float64 // encoded wire bytes per entry
	nsPerProduct  float64 // in-memory SpGEMM time per partial product
	walBatch      int     // entries per WAL append
}

func (rp *replayResult) set(name string, v float64) {
	rp.order = append(rp.order, name)
	rp.values[name] = v
}

func randFor(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*1000003 + int64(stream)))
}

// replays runs every layer replay and returns the unit costs.
func (r *run) replays(c *cluster) *replayResult {
	rp := &replayResult{values: map[string]float64{}, tcp: r.name == "serve-mixed"}
	sp := r.tr.start(nil, "replays", "phase")
	defer sp.end(nil)
	entries := r.tableEntries(c)

	span := r.tr.start(sp, "skv", "skv")
	enc, dec, bpe := replayCodec(entries)
	span.end(nil)
	rp.set("skv.encode_ns_per_entry", enc)
	rp.set("skv.decode_ns_per_entry", dec)
	rp.bytesPerEntry = bpe

	payload := skv.EncodeBatch(entries[:min(wireBatch, len(entries))])
	span = r.tr.start(sp, "transport", "transport")
	inproc, err := replayCall(transport.NewInProc(), "", payload)
	must(err, "inproc replay")
	tcp, err := replayCall(transport.NewTCP(), "127.0.0.1:0", payload)
	must(err, "tcp replay")
	stream, err := replayStream(payload)
	must(err, "tcp stream replay")
	span.end(nil)
	rp.set("transport.inproc_call_us_p50", inproc)
	rp.set("transport.tcp_call_us_p50", tcp)
	rp.set("transport.tcp_stream_mib_per_s", stream)

	span = r.tr.start(sp, "tablet", "tablet")
	write, snap, err := replayTablet(entries)
	must(err, "tablet replay")
	span.end(nil)
	rp.set("tablet.write_ns_per_entry", write)
	rp.set("tablet.snapshot_ns_per_entry", snap)

	rp.walBatch = 2 * r.batchEdges
	span = r.tr.start(sp, "wal", "wal")
	p50, p99, perSync, err := replayWAL(filepath.Join(r.dataD, "wal-replay"), entries, rp.walBatch)
	must(err, "wal replay")
	span.end(nil)
	rp.set("wal.append_us_p50", p50)
	rp.set("wal.append_us_p99", p99)
	rp.set("wal.commits_per_fsync", perSync)

	span = r.tr.start(sp, "rfile", "rfile")
	scanNS, seekUS, skip, err := replayRFile(filepath.Join(r.dataD, "replay.rf"), entries, randFor(r.seed, 7))
	must(err, "rfile replay")
	span.end(nil)
	rp.set("rfile.scan_ns_per_entry", scanNS)
	rp.set("rfile.seek_us_p50", seekUS)
	rp.set("rfile.bloom_skip_ratio", skip)

	span = r.tr.start(sp, "sparse", "sparse")
	ko := c.kernel.ko
	at := sparse.Transpose(ko.adj)
	var gemm []float64
	for t0 := time.Now(); len(gemm) < 5 || time.Since(t0) < replayFloor; {
		s := time.Now()
		sparse.SpGEMM(at, ko.adj, semiring.PlusTimes)
		gemm = append(gemm, time.Since(s).Seconds())
	}
	span.end(nil)
	rp.set("sparse.spgemm_ms", median(gemm)*1e3)
	rp.set("sparse.spgemm_products", float64(ko.products))
	rp.nsPerProduct = median(gemm) * 1e9 / float64(ko.products)

	span = r.tr.start(sp, "algo", "algo")
	var kt []float64
	for t0 := time.Now(); len(kt) < 3 || time.Since(t0) < replayFloor; {
		s := time.Now()
		algo.KTrussAdj(ko.adj, kTrussK)
		kt = append(kt, time.Since(s).Seconds())
	}
	span.end(nil)
	rp.set("algo.ktruss_ms", median(kt)*1e3)
	return rp
}

// tableEntries reads the main graph's A table: the workload's own
// entries, in key order.
func (r *run) tableEntries(c *cluster) []skv.Entry {
	var es []skv.Entry
	must(forEachEntry(c.db, c.main.a, func(e skv.Entry) { es = append(es, e) }), "scan for replay")
	if len(es) == 0 {
		must(errors.New("empty table"), "scan for replay")
	}
	return es
}

// replayCodec times EncodeBatch and DecodeBatch over entries in
// wire-batch chunks, returning ns per entry each way and encoded bytes
// per entry.
func replayCodec(entries []skv.Entry) (enc, dec, bytesPerEntry float64) {
	var chunks [][]skv.Entry
	for i := 0; i < len(entries); i += wireBatch {
		chunks = append(chunks, entries[i:min(i+wireBatch, len(entries))])
	}
	var encoded [][]byte
	var bytes int
	n := 0
	t0 := time.Now()
	for len(encoded) == 0 || time.Since(t0) < replayFloor {
		encoded = encoded[:0]
		bytes = 0
		for _, ch := range chunks {
			b := skv.EncodeBatch(ch)
			encoded = append(encoded, b)
			bytes += len(b)
		}
		n += len(entries)
	}
	enc = float64(time.Since(t0)) / float64(n)
	n = 0
	t0 = time.Now()
	for n == 0 || time.Since(t0) < replayFloor {
		for _, b := range encoded {
			if _, err := skv.DecodeBatch(b); err != nil {
				must(err, "decode replay")
			}
		}
		n += len(entries)
	}
	dec = float64(time.Since(t0)) / float64(n)
	return enc, dec, float64(bytes) / float64(len(entries))
}

// echo is a trivial transport handler: calls return one byte, streams
// send the request back count times.
type echo struct{ count int }

func (echo) Call(op byte, req []byte) ([]byte, error) { return []byte{op}, nil }

func (e echo) Stream(op byte, req []byte, send func([]byte) error) error {
	for i := 0; i < e.count; i++ {
		if err := send(req); err != nil {
			return err
		}
	}
	return nil
}

type listenDialer interface {
	Listen(addr string, h transport.Handler) (transport.Server, error)
	Dial(addr string) (transport.Conn, error)
	Close() error
}

// replayCall returns the median Conn.Call round trip in µs with a
// wire-batch request.
func replayCall(t listenDialer, addr string, payload []byte) (float64, error) {
	defer t.Close()
	srv, err := t.Listen(addr, echo{})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	conn, err := t.Dial(srv.Addr())
	if err != nil {
		return 0, err
	}
	lat := make([]float64, 0, transportOps)
	for i := 0; i < transportOps; i++ {
		t0 := time.Now()
		if _, err := conn.Call(1, payload); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	return median(lat), nil
}

// replayStream returns the median tcp OpenStream throughput in MiB/s
// over streams of 64 wire-batch payloads.
func replayStream(payload []byte) (float64, error) {
	const frames = 64
	t := transport.NewTCP()
	defer t.Close()
	srv, err := t.Listen("127.0.0.1:0", echo{count: frames})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	conn, err := t.Dial(srv.Addr())
	if err != nil {
		return 0, err
	}
	var rates []float64
	for t0 := time.Now(); len(rates) < 5 || time.Since(t0) < replayFloor; {
		s := time.Now()
		st, err := conn.OpenStream(2, payload)
		if err != nil {
			return 0, err
		}
		got := 0
		for {
			b, err := st.Recv()
			if err == io.EOF {
				break
			}
			if err != nil {
				st.Close()
				return 0, err
			}
			got += len(b)
		}
		st.Close()
		if got != frames*len(payload) {
			return 0, fmt.Errorf("stream delivered %d bytes, want %d", got, frames*len(payload))
		}
		rates = append(rates, float64(got)/(1<<20)/time.Since(s).Seconds())
	}
	return median(rates), nil
}

// replayTablet times Tablet.Write of entries in wire-batch chunks into a
// fresh in-memory tablet, then a full Snapshot scan, in ns per entry.
func replayTablet(entries []skv.Entry) (write, snap float64, err error) {
	var ws, ss []float64
	for t0 := time.Now(); len(ws) < 3 || time.Since(t0) < replayFloor; {
		tb := tablet.New("", "", 1<<30, 1)
		s := time.Now()
		for i := 0; i < len(entries); i += wireBatch {
			if err := tb.Write(entries[i:min(i+wireBatch, len(entries))]); err != nil {
				return 0, 0, err
			}
		}
		ws = append(ws, float64(time.Since(s))/float64(len(entries)))
		s = time.Now()
		it := tb.Snapshot()
		if err := it.Seek(skv.FullRange()); err != nil {
			return 0, 0, err
		}
		n := 0
		for ; it.HasTop(); n++ {
			if err := it.Next(); err != nil {
				return 0, 0, err
			}
		}
		ss = append(ss, float64(time.Since(s))/float64(n))
		if n != len(entries) {
			return 0, 0, fmt.Errorf("tablet snapshot saw %d entries, wrote %d", n, len(entries))
		}
	}
	return median(ws), median(ss), nil
}

// replayWAL appends batch-entry records from two goroutines to a fresh
// log with fsync on, returning append latency p50 and p99 in µs and
// appends per fsync.
func replayWAL(dir string, entries []skv.Entry, batch int) (p50, p99, perSync float64, err error) {
	var syncs atomic.Int64
	log, err := wal.Open(dir, "replay", wal.Options{SyncObserver: func(time.Duration) { syncs.Add(1) }})
	if err != nil {
		return 0, 0, 0, err
	}
	defer log.Remove()
	batch = min(batch, len(entries))
	lat := make([][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < walAppends; i++ {
				off := ((g*walAppends + i) * batch) % (len(entries) - batch + 1)
				t0 := time.Now()
				if err := log.Append(entries[off : off+batch]); err != nil {
					errs[g] = err
					return
				}
				lat[g] = append(lat[g], float64(time.Since(t0))/1e3)
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, 0, 0, err
	}
	all := append(lat[0], lat[1]...)
	p99, ok := percentile(all, 990)
	if !ok {
		return 0, 0, 0, fmt.Errorf("wal replay: %d appends leave too few beyond p99", len(all))
	}
	return median(all), p99, ratio(float64(len(all)), float64(syncs.Load())), nil
}

// replayRFile writes entries to an rfile, then times a full scan (ns per
// entry) and ExactCell seeks on present and absent cells (median µs),
// and reports bloom rejections per absent probe.
func replayRFile(path string, entries []skv.Entry, rng *rand.Rand) (scanNS, seekUS, skipRatio float64, err error) {
	if err := rfile.WriteAll(path, entries, rfile.WriterOptions{}); err != nil {
		return 0, 0, 0, err
	}
	var stats rfile.Stats
	rd, err := rfile.OpenWithOptions(path, rfile.ReaderOptions{Stats: &stats})
	if err != nil {
		return 0, 0, 0, err
	}
	defer rd.Close()
	var scans []float64
	for t0 := time.Now(); len(scans) < 3 || time.Since(t0) < replayFloor; {
		s := time.Now()
		it := rd.Iter()
		if err := it.Seek(skv.FullRange()); err != nil {
			return 0, 0, 0, err
		}
		n := 0
		for ; it.HasTop(); n++ {
			if err := it.Next(); err != nil {
				return 0, 0, 0, err
			}
		}
		if n != len(entries) {
			return 0, 0, 0, fmt.Errorf("rfile scan saw %d entries, wrote %d", n, len(entries))
		}
		scans = append(scans, float64(time.Since(s))/float64(n))
	}
	present := map[[2]string]bool{}
	for _, e := range entries {
		present[[2]string{e.K.Row, e.K.ColQ}] = true
	}
	lat := make([]float64, 0, seekProbes)
	absent := 0
	neg0 := stats.BloomNegatives.Load() + stats.ColQBloomNegatives.Load()
	for i := 0; i < seekProbes; i++ {
		e := entries[rng.Intn(len(entries))]
		row, colQ := e.K.Row, e.K.ColQ
		if i%2 == 1 { // an absent cell: a present row with another row's qualifier
			colQ = entries[rng.Intn(len(entries))].K.ColQ
			if present[[2]string{row, colQ}] {
				continue
			}
			absent++
		}
		it := rd.Iter()
		s := time.Now()
		if err := it.Seek(skv.ExactCell(row, e.K.ColF, colQ)); err != nil {
			return 0, 0, 0, err
		}
		lat = append(lat, float64(time.Since(s))/1e3)
		if it.HasTop() == (i%2 == 1) {
			return 0, 0, 0, fmt.Errorf("rfile seek (%s, %s) found=%v", row, colQ, it.HasTop())
		}
	}
	negs := stats.BloomNegatives.Load() + stats.ColQBloomNegatives.Load() - neg0
	return median(scans), median(lat), ratio(float64(negs), float64(absent)), nil
}
