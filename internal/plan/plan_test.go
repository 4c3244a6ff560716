package plan

import (
	"reflect"
	"strings"
	"testing"

	"graphulo/internal/iterator"
)

func compileOK(t *testing.T, root *Node, opts Options) *Plan {
	t.Helper()
	p, err := Compile(root, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p
}

func TestCompileFusesApplyReduceSpAsgn(t *testing.T) {
	root := Write(
		SpAsgn(
			Reduce(
				Apply(Scan("A", Constraint{}), iterator.Setting{Name: "scale", Opts: map[string]string{"factor": "2"}}),
				"plus", "", "deg"),
			"p|", ""),
		"C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "fuseAll", TraceID: "t"})
	if len(p.Steps) != 1 {
		t.Fatalf("apply+reduce+spAsgn should fuse into one step, got %d: %+v", len(p.Steps), p.Steps)
	}
	if got := p.FusedGroups(); got != 1 {
		t.Fatalf("FusedGroups = %d, want 1", got)
	}
	if len(p.ScratchTables()) != 0 {
		t.Fatalf("fully fused plan created scratch tables: %v", p.ScratchTables())
	}
	// SpAsgn is hoisted to run last, directly below the sink.
	step := p.Steps[0]
	var names []string
	for _, s := range step.Settings {
		names = append(names, s.Name)
	}
	last := names[len(names)-1]
	if last != "remoteWrite" || names[len(names)-2] != "spAsgn" {
		t.Fatalf("spAsgn must sit directly below the sink, got settings %v", names)
	}
}

func TestCompileMaterializesReduceOverMult(t *testing.T) {
	root := Write(
		Reduce(Mult(Scan("A", Constraint{}), "AT", "plus.times"), "plus", "", "deg"),
		"C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "degOfSquare", ScratchBase: "C", TraceID: "abc"})
	if len(p.Steps) != 2 {
		t.Fatalf("reduce over mult must materialize: want 2 steps, got %d", len(p.Steps))
	}
	scratch := p.ScratchTables()
	if len(scratch) != 1 || scratch[0] != "C_m0_abc" {
		t.Fatalf("scratch tables = %v, want [C_m0_abc]", scratch)
	}
	if !p.Steps[0].Scratch || p.Steps[0].OutTable != "C_m0_abc" {
		t.Fatalf("step 0 should write the scratch table, got %+v", p.Steps[0])
	}
	if p.Steps[1].Source != "C_m0_abc" {
		t.Fatalf("step 1 should rescan the scratch table, got source %q", p.Steps[1].Source)
	}
}

func TestCompileMaterializesMultOverMult(t *testing.T) {
	root := Write(
		Mult(Mult(Scan("A", Constraint{}), "A", "plus.times"), "A", "plus.times"),
		"C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "cube", ScratchBase: "C", TraceID: "x"})
	if len(p.Steps) != 2 {
		t.Fatalf("mult over mult must materialize: want 2 steps, got %d", len(p.Steps))
	}
	if got := p.FusedGroups(); got != 2 {
		t.Fatalf("both steps carry a mult, FusedGroups = %d, want 2", got)
	}
}

func TestCompileCollectFoldNeedsNoScratch(t *testing.T) {
	root := CollectFold(Mult(Scan("A", Constraint{}), "A", "plus.times"), "plus.times")
	p := compileOK(t, root, Options{Kernel: "square", TraceID: "t"})
	if len(p.Steps) != 1 || len(p.ScratchTables()) != 0 {
		t.Fatalf("collect-fold over mult should be a single scratch-free step, got %+v", p.Steps)
	}
	if p.Steps[0].Sink != SinkCollectFold {
		t.Fatalf("sink = %v, want SinkCollectFold", p.Steps[0].Sink)
	}
}

func TestCompileRejectsBadRoots(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("nil root must error")
	}
	if _, err := Compile(Scan("A", Constraint{}), Options{}); err == nil {
		t.Fatal("non-sink root must error")
	}
	if _, err := Compile(Write(Write(Scan("A", Constraint{}), "B", "", 0, 0), "C", "", 0, 0), Options{}); err == nil {
		t.Fatal("sink in the middle of a chain must error")
	}
}

func TestConstraintBecomesColRangeSetting(t *testing.T) {
	c := Constraint{RowStart: "a", RowEnd: "m", ColQStart: "b", ColQEnd: "k"}
	root := Write(Scan("A", c), "C", "plus.times", 0, -1)
	p := compileOK(t, root, Options{Kernel: "band"})
	step := p.Steps[0]
	found := false
	for _, s := range step.Settings {
		if s.Name == "colRange" {
			found = true
			if s.Priority != 25 {
				t.Fatalf("colRange priority = %d, want 25 (below kernel stages)", s.Priority)
			}
			if s.Opts["minColQ"] != "b" || s.Opts["maxColQ"] != "k" {
				t.Fatalf("colRange opts = %v", s.Opts)
			}
		}
	}
	if !found {
		t.Fatal("column constraint did not compile to a colRange setting")
	}
	if !reflect.DeepEqual(step.Constraint, c) {
		t.Fatalf("step constraint = %+v, want %+v", step.Constraint, c)
	}
}

func TestResolvePreAgg(t *testing.T) {
	multChain := chain{source: "A", hasMult: true}
	plainChain := chain{source: "A"}

	if b := resolvePreAgg(-1, multChain); b != 0 {
		t.Fatalf("negative request: got %d, want 0", b)
	}
	if b := resolvePreAgg(1234, multChain); b != 1234 {
		t.Fatalf("positive request: got %d, want 1234", b)
	}
	if b := resolvePreAgg(0, plainChain); b != 0 {
		t.Fatalf("no-mult chain: got %d, want 0 — nothing to fold", b)
	}
	// The default on a multiply chain is the fixed cap: the fold buffer
	// grows on demand up to it, independent of table sizes or of what
	// earlier kernels wrote.
	if b := resolvePreAgg(0, multChain); b != DefaultPreAggBytes {
		t.Fatalf("multiply chain default: got %d, want %d", b, DefaultPreAggBytes)
	}
}

func TestFormatMarksFusedGroupsAndScratch(t *testing.T) {
	root := Write(
		Reduce(Mult(Scan("A", Constraint{}), "AT", "plus.times"), "plus", "", "deg"),
		"C", "plus.times", 0, 0)
	p := compileOK(t, root, Options{Kernel: "degOfSquare", ScratchBase: "C", TraceID: "t"})
	out := p.Format()
	if !strings.Contains(out, "fused group") {
		t.Fatalf("Format output missing fused-group marker:\n%s", out)
	}
	if !strings.Contains(out, "scratch table") {
		t.Fatalf("Format output missing scratch-table marker:\n%s", out)
	}
	if !strings.Contains(out, "fused-groups=") {
		t.Fatalf("Format output missing fused-groups header:\n%s", out)
	}

	fold := compileOK(t, CollectFold(Mult(Scan("A", Constraint{}), "A", "plus.times"), "plus.times"),
		Options{Kernel: "square"})
	if out := fold.Format(); !strings.Contains(out, "no scratch table") {
		t.Fatalf("collect-fold Format missing no-scratch marker:\n%s", out)
	}
}
