// Command perfbench is the repository benchmark. It drives the public
// graphulo API over one named workload, checks every answer against the
// in-memory oracles of internal/algo and internal/sparse, and prints
// the workload's metrics; the last line of standard output is one JSON
// object. Run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload paper-kernels --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans and counter deltas around every call plus layer
// replays, and reports the per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
)

// outDir holds the benchmark's scratch data and trace files, relative
// to the directory it runs from.
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: paper-kernels, durable-io or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 15, "measured budget of the run in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	os.Exit(execute(w, *seed, *seconds, *trace == 1))
}

func execute(w workload, seed uint64, seconds int, traced bool) int {
	dataDir, err := os.MkdirTemp(mustMkdir(filepath.Join(outDir, "data")), w.name+"-")
	must(err, "data dir")
	defer os.RemoveAll(dataDir)

	r := newRun(w.name, seed, seconds, traced, dataDir)
	var c *cluster
	for rep := 0; rep < setupReps; rep++ {
		if c != nil {
			c.close()
		}
		c, err = w.setup(r, rep)
		must(err, "set up "+w.name)
	}
	defer c.close()
	r.db = c.db
	r.queueWait0, r.queries0 = tenantTotals(c.db)
	rng := rand.New(rand.NewSource(int64(seed)))
	start := readCounters(c.db)
	w.body(r, c, rng)
	r.root.end(readCounters(c.db).deltaSince(start))

	var ms map[string]metric
	if traced {
		lr := r.layerReport(c) // its side runs add to r.out
		ms = lr.metrics
		lr.print(os.Stdout)
		must(lr.write(r), "write trace")
	} else {
		ms = r.endToEnd(c)
		printEndToEnd(os.Stdout, r, ms)
		if len(ms) != len(endToEndMetrics) {
			fmt.Fprintln(os.Stderr, "perfbench: a metric could not be computed; the workload is sized too small")
			return 1
		}
	}
	rep := report{Correct: r.out.failed() == 0, Attempted: r.out.attempted, Failed: r.out.failed(), Metrics: ms}
	for _, m := range r.mismatch {
		fmt.Printf("FAILED %s\n", m)
	}
	line, err := json.Marshal(rep)
	must(err, "encode result")
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func mustMkdir(dir string) string {
	must(os.MkdirAll(dir, 0o755), "mkdir "+dir)
	return dir
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
