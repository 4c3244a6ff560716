package plan

import (
	"fmt"

	"graphulo/internal/accumulo"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/telemetry"
)

// Env is what a plan needs to run. EnsureTable prepares a write sink —
// create the table if absent and install the semiring's ⊕ combiner
// (core.ensureResultTable) — injected as a closure so plan does not
// depend on core.
type Env struct {
	Conn        *accumulo.Connector
	Query       *telemetry.Query
	EnsureTable func(table, semiring string) error
	// Visit, when set, streams a SinkCollect step's entries to the
	// caller as they arrive instead of accumulating Result.Entries — so
	// a collect whose consumer folds (a BFS hop into the visited set, a
	// table read into an array builder) never materialises the stream.
	Visit func(skv.Entry) error
}

// Cell addresses one output cell of a folding collect.
type Cell struct {
	Row, ColF, ColQ string
}

// Result is what a plan's terminal sink produced.
type Result struct {
	// Written is the entry count RemoteWrite reported for a SinkWrite
	// terminal step (partial products with pre-aggregation off, folded
	// cells with it on).
	Written int
	// Entries holds a SinkCollect terminal step's stream, in arrival
	// order.
	Entries []skv.Entry
	// Cells holds a SinkCollectFold terminal step's ⊕-folded output.
	Cells map[Cell]float64
}

// Execute runs the plan's steps in order. Each step is one scan
// carrying its fused iterator stack — executed through the ordinary
// Scanner/EntryStream machinery, so it behaves identically on inproc,
// TCP, and external-daemon transports. Scratch tables created by
// materialisation steps are dropped before returning, on success and on
// error. The returned Result is the terminal step's.
func (p *Plan) Execute(env Env) (res *Result, err error) {
	if len(p.Steps) == 0 {
		return nil, fmt.Errorf("plan: empty plan")
	}
	var scratch []string
	defer func() {
		ops := env.Conn.TableOperations()
		for _, name := range scratch {
			if !ops.Exists(name) {
				continue
			}
			if derr := ops.Delete(name); derr != nil && err == nil {
				err = fmt.Errorf("plan: dropping scratch table %q: %w", name, derr)
			}
		}
	}()
	for i := range p.Steps {
		step := &p.Steps[i]
		if step.Scratch {
			scratch = append(scratch, step.OutTable)
		}
		res, err = p.runStep(step, env)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runStep executes one compiled step under its own telemetry span.
func (p *Plan) runStep(step *Step, env Env) (*Result, error) {
	span := env.Query.StartSpan(env.Query.RootID(), stepSpanName(step))
	defer span.End()
	if step.Sink == SinkWrite {
		ops := env.Conn.TableOperations()
		if step.Scratch {
			// A stale table under this name would ⊕-fold its leftovers
			// into ours; trace-suffixed names make collisions vanishingly
			// rare, but a crash can leave one behind.
			if ops.Exists(step.OutTable) {
				if err := ops.Delete(step.OutTable); err != nil {
					return nil, err
				}
			}
			env.Conn.Cluster().Count(env.Query, telemetry.ScratchTablesCreated, 1)
		}
		if env.EnsureTable == nil {
			return nil, fmt.Errorf("plan: write sink %q needs Env.EnsureTable", step.OutTable)
		}
		if err := env.EnsureTable(step.OutTable, step.Semiring); err != nil {
			return nil, err
		}
	}
	// A multi-range collect (a BFS frontier) runs through the
	// BatchScanner so the ranges fan out across tablets in parallel;
	// everything else streams through a plain Scanner. Write sinks stay
	// on the Scanner even with ranges: their results land server-side,
	// the client only sums monitoring entries.
	if step.Sink != SinkWrite && len(step.Ranges) > 1 {
		return p.runBatchStep(step, env)
	}
	sc, err := env.Conn.CreateScanner(step.Source)
	if err != nil {
		return nil, err
	}
	sc.SetTrace(env.Query)
	if len(step.Constraint.Families) > 0 {
		sc.SetFamilies(step.Constraint.Families...)
	}
	if len(step.Ranges) > 0 {
		sc.SetRanges(step.Ranges)
	} else {
		sc.SetRange(step.Constraint.rowRange())
	}
	for _, s := range step.Settings {
		sc.AddScanIterator(s)
	}
	st, err := sc.Stream()
	if err != nil {
		return nil, err
	}
	defer st.Close()
	res := &Result{}
	switch step.Sink {
	case SinkWrite:
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			v, ok := skv.DecodeFloat(e.V)
			if !ok {
				return nil, fmt.Errorf("plan: monitoring entry %v carries undecodable count %q", e.K, string(e.V))
			}
			res.Written += int(v)
		}
	case SinkCollect:
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			if env.Visit != nil {
				if err := env.Visit(e); err != nil {
					return nil, err
				}
				continue
			}
			res.Entries = append(res.Entries, e)
		}
	case SinkCollectFold:
		ring, ok := semiring.ByName(step.Semiring)
		if !ok {
			return nil, fmt.Errorf("plan: unknown semiring %q", step.Semiring)
		}
		res.Cells = map[Cell]float64{}
		for e, ok := st.Next(); ok; e, ok = st.Next() {
			v, ok := skv.DecodeFloat(e.V)
			if !ok {
				continue
			}
			c := Cell{Row: e.K.Row, ColF: e.K.ColF, ColQ: e.K.ColQ}
			if prev, seen := res.Cells[c]; seen {
				res.Cells[c] = ring.Add(prev, v)
			} else {
				res.Cells[c] = v
			}
		}
	}
	return res, st.Err()
}

// runBatchStep runs a multi-range collect through the BatchScanner:
// ranges execute across tablets in parallel and entries arrive
// unordered, which both sink kinds tolerate (a fold is order-free under
// an associative ⊕; raw collects of frontier expansions fold into maps
// client-side).
func (p *Plan) runBatchStep(step *Step, env Env) (*Result, error) {
	bs, err := env.Conn.CreateBatchScanner(step.Source, 8)
	if err != nil {
		return nil, err
	}
	bs.SetTrace(env.Query)
	if len(step.Constraint.Families) > 0 {
		bs.SetFamilies(step.Constraint.Families...)
	}
	bs.SetRanges(step.Ranges)
	for _, s := range step.Settings {
		bs.AddScanIterator(s)
	}
	res := &Result{}
	var ring semiring.Semiring
	if step.Sink == SinkCollectFold {
		var ok bool
		ring, ok = semiring.ByName(step.Semiring)
		if !ok {
			return nil, fmt.Errorf("plan: unknown semiring %q", step.Semiring)
		}
		res.Cells = map[Cell]float64{}
	}
	err = bs.ForEach(func(e skv.Entry) error {
		if step.Sink == SinkCollect {
			if env.Visit != nil {
				return env.Visit(e)
			}
			res.Entries = append(res.Entries, e)
			return nil
		}
		v, ok := skv.DecodeFloat(e.V)
		if !ok {
			return nil
		}
		c := Cell{Row: e.K.Row, ColF: e.K.ColF, ColQ: e.K.ColQ}
		if prev, seen := res.Cells[c]; seen {
			res.Cells[c] = ring.Add(prev, v)
		} else {
			res.Cells[c] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// stepSpanName labels a step's telemetry span with its fused shape.
func stepSpanName(step *Step) string {
	name := "plan:" + step.Source
	for _, op := range step.Ops[1:] { // Ops[0] is the scan itself
		name += "+" + firstWord(op)
	}
	return name
}

func firstWord(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}
