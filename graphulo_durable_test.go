package graphulo

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// crashChildEnv, when set in a re-executed test binary, names the
// directory TestDurableTableGraphSurvivesRestart's child half builds
// its graph under before exiting without Close.
const crashChildEnv = "GRAPHULO_TEST_CRASH_CHILD"

// durableWant is what the crashed child computed before it died.
type durableWant struct {
	Tables []string
	BFS    map[string]int
	Deg    map[string]float64
	Tri    float64
}

// The acceptance contract for the durable storage engine: a TableGraph
// ingested with DataDir set survives process restart. A child process
// builds the graph and exits without any clean shutdown, so recovery
// runs off manifest + WAL replay; reopening the same directory must
// recover all tables and splits and give identical BFS, Degrees, and
// TriangleCount results.
func TestDurableTableGraphSurvivesRestart(t *testing.T) {
	if base := os.Getenv(crashChildEnv); base != "" {
		buildDurableGraphAndExit(t, base)
	}
	base := t.TempDir()
	child := exec.Command(os.Args[0], "-test.run=^TestDurableTableGraphSurvivesRestart$")
	child.Env = append(os.Environ(), crashChildEnv+"="+base)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(filepath.Join(base, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want durableWant
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	wantTables, wantBFS, wantDeg, wantTri := want.Tables, want.BFS, want.Deg, want.Tri

	db2, err := Open(ClusterConfig{TabletServers: 2, MemLimit: 128, DataDir: filepath.Join(base, "data")})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	gotTables := db2.Connector().TableOperations().List()
	if len(gotTables) < 3 {
		t.Fatalf("recovered tables = %v, want at least A/AT/Deg", gotTables)
	}
	for i, name := range wantTables {
		if gotTables[i] != name {
			t.Fatalf("tables differ after restart: %v vs %v", wantTables, gotTables)
		}
	}
	tg2, err := db2.OpenGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	gotBFS, err := tg2.BFS([]int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotBFS) != len(wantBFS) {
		t.Fatalf("BFS visited %d vertices after restart, want %d", len(gotBFS), len(wantBFS))
	}
	for k, lvl := range wantBFS {
		if gotBFS[k] != lvl {
			t.Fatalf("BFS level of %s = %d after restart, want %d", k, gotBFS[k], lvl)
		}
	}
	gotDeg, err := tg2.Degrees()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotDeg) != len(wantDeg) {
		t.Fatalf("Degrees has %d vertices after restart, want %d", len(gotDeg), len(wantDeg))
	}
	for k, d := range wantDeg {
		if gotDeg[k] != d {
			t.Fatalf("degree of %s = %v after restart, want %v", k, gotDeg[k], d)
		}
	}
	gotTri, err := tg2.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	if gotTri != wantTri {
		t.Fatalf("TriangleCount = %v after restart, want %v", gotTri, wantTri)
	}
}

// buildDurableGraphAndExit is the child half of
// TestDurableTableGraphSurvivesRestart: it ingests the graph under
// base/data, records the kernel results in base/want.json, and exits
// with the cluster still open — acknowledged writes must be recoverable
// from manifest + WAL alone.
func buildDurableGraphAndExit(t *testing.T, base string) {
	graph := DedupGraph(RMAT(Graph500(6, 3)))
	db, err := Open(ClusterConfig{TabletServers: 2, MemLimit: 128, DataDir: filepath.Join(base, "data")})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	var want durableWant
	if want.BFS, err = tg.BFS([]int{0}, 3); err != nil {
		t.Fatal(err)
	}
	if want.Deg, err = tg.Degrees(); err != nil {
		t.Fatal(err)
	}
	if want.Tri, err = tg.TriangleCount(); err != nil {
		t.Fatal(err)
	}
	want.Tables = db.Connector().TableOperations().List()
	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(base, "want.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	os.Exit(0)
}

// A durable graph built and cleanly closed in one "process" is fully
// queryable in the next without re-ingest (the cmd/graphulo --data-dir
// workflow).
func TestDurableBuildThenQueryWorkflow(t *testing.T) {
	dir := t.TempDir()
	graph := PaperGraph()

	db, err := Open(ClusterConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := db.CreateGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.Ingest(graph); err != nil {
		t.Fatal(err)
	}
	adjBefore, err := tg.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(ClusterConfig{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tg2, err := db2.OpenGraph("G")
	if err != nil {
		t.Fatal(err)
	}
	adjAfter, err := tg2.Adjacency()
	if err != nil {
		t.Fatal(err)
	}
	if adjBefore.NNZ() == 0 || adjBefore.NNZ() != adjAfter.NNZ() {
		t.Fatalf("adjacency NNZ %d -> %d across restart", adjBefore.NNZ(), adjAfter.NNZ())
	}
	for _, e := range adjBefore.Entries() {
		if adjAfter.At(e.Row, e.Col) != e.Val {
			t.Fatalf("edge (%s,%s) = %v after restart, want %v",
				e.Row, e.Col, adjAfter.At(e.Row, e.Col), e.Val)
		}
	}
	// OpenGraph on a graph that never existed must fail loudly.
	if _, err := db2.OpenGraph("nope"); err == nil {
		t.Fatal("OpenGraph on missing graph succeeded")
	}
}
