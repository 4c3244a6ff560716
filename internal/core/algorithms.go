package core

import (
	"fmt"

	"graphulo/internal/accumulo"
	"graphulo/internal/algo"
	"graphulo/internal/assoc"
	"graphulo/internal/plan"
	"graphulo/internal/schema"
	"graphulo/internal/semiring"
	"graphulo/internal/skv"
	"graphulo/internal/sparse"
	"graphulo/internal/telemetry"
)

// This file hosts the table-resident graph algorithms: the paper's
// Section III algorithms driven against database tables, using the core
// table kernels where the heavy data movement is and the client only
// for orchestration and small dense state — the Graphulo division of
// labour.

// AdjBFSOptions configures a table BFS.
type AdjBFSOptions struct {
	// MinDegree/MaxDegree filter expansion through the degree table
	// (Graphulo's AdjBFS degree filtering); 0 disables a bound.
	MinDegree float64
	MaxDegree float64
	// DegTable is required when a degree bound is set.
	DegTable string
	// DegFamilies bands the degree-table read to a column-family set,
	// so on a durable cluster it touches only the matching rfile
	// locality groups. nil selects the standard degree band (the "deg"
	// family plus the unnamed family, covering both schema-ingested and
	// TableRowReduce-built degree tables).
	DegFamilies []string
	// RowStart/RowEnd restrict the search to a row band (sub-graph BFS,
	// the SpRef form of the frontier expansion): vertices outside
	// [RowStart, RowEnd) are neither expanded nor visited, so frontier
	// scans never touch tablets outside the band. "" leaves that side
	// unbounded.
	RowStart, RowEnd string
	// Tenant labels the query for fair-share scheduling, budgets, and
	// per-tenant telemetry ("" = the cluster's default tenant).
	Tenant string
}

// inBand reports whether a vertex row key lies in the options' row band.
func (o AdjBFSOptions) inBand(v string) bool {
	if o.RowStart != "" && v < o.RowStart {
		return false
	}
	if o.RowEnd != "" && v >= o.RowEnd {
		return false
	}
	return true
}

// AdjBFS runs a k-hop breadth-first search over an adjacency table:
// each hop batch-scans the frontier's rows (one exact-row range per
// frontier vertex, scanned in parallel across tablets), unions the
// neighbours, and removes already-visited vertices. It returns the
// visited vertex → hop-level map.
func AdjBFS(conn *accumulo.Connector, table string, seeds []string, hops int, opts AdjBFSOptions) (visited map[string]int, err error) {
	q, done, err := startQuery(conn, "AdjBFS", nil, opts.Tenant)
	if err != nil {
		return
	}
	defer func() { done(err) }()
	degOK := func(string) bool { return true }
	if opts.MinDegree > 0 || opts.MaxDegree > 0 {
		if opts.DegTable == "" {
			return nil, fmt.Errorf("core: degree bounds need DegTable")
		}
		degBand := opts.DegFamilies
		if degBand == nil {
			degBand = schema.DegBand()
		}
		degs, err := readDegrees(conn, opts.DegTable, q, degBand...)
		if err != nil {
			return nil, err
		}
		degOK = func(v string) bool {
			d := degs[v]
			if opts.MinDegree > 0 && d < opts.MinDegree {
				return false
			}
			if opts.MaxDegree > 0 && d > opts.MaxDegree {
				return false
			}
			return true
		}
	}
	visited = map[string]int{}
	frontier := make([]string, 0, len(seeds))
	for _, s := range seeds {
		if !opts.inBand(s) {
			continue
		}
		visited[s] = 0
		frontier = append(frontier, s)
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		ranges := make([]skv.Range, len(frontier))
		for i, v := range frontier {
			ranges[i] = skv.ExactRow(v)
		}
		// Each hop is a collect plan over the frontier's rows — a
		// multi-range scan the executor fans out across tablets in
		// parallel. The visitor folds neighbour entries into the visited
		// set as each row scan produces them, so a hop never materialises
		// the expansion (which can approach the edge count on dense
		// frontiers).
		var next []string
		_, err := runPlanVisit(conn, plan.Collect(plan.ScanRanges(table, ranges)), "AdjBFS", "", q,
			func(e skv.Entry) error {
				nb := e.K.ColQ
				if _, seen := visited[nb]; seen {
					return nil
				}
				if !opts.inBand(nb) || !degOK(nb) {
					return nil
				}
				visited[nb] = hop
				next = append(next, nb)
				return nil
			})
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	return visited, nil
}

// readDegrees folds a degree-style table into row → value. A non-empty
// families band is pushed into the scan so it reads only the matching
// locality groups of a mixed table.
func readDegrees(conn *accumulo.Connector, table string, q *telemetry.Query, families ...string) (map[string]float64, error) {
	sc, err := conn.CreateScanner(table)
	if err != nil {
		return nil, err
	}
	sc.SetTrace(q)
	if len(families) > 0 {
		sc.SetFamilies(families...)
	}
	st, err := sc.Stream()
	if err != nil {
		return nil, err
	}
	return st.CollectFloatByRow()
}

// dropScratch deletes the scratch tables a driver created, folding the
// first delete failure into err when the driver itself succeeded.
// Drivers defer it so intermediates are reclaimed on success and error
// paths alike.
func dropScratch(conn *accumulo.Connector, names []string, err *error) {
	ops := conn.TableOperations()
	for _, name := range names {
		if !ops.Exists(name) {
			continue
		}
		if derr := ops.Delete(name); derr != nil && *err == nil {
			*err = fmt.Errorf("core: dropping scratch table %q: %w", name, derr)
		}
	}
}

// noteScratch counts a driver-materialised intermediate table in the
// cluster's and the query's counters — the round-trip the fused
// drivers exist to avoid.
func noteScratch(conn *accumulo.Connector, q *telemetry.Query) {
	conn.Cluster().Count(q, telemetry.ScratchTablesCreated, 1)
}

// planReadAssoc reads a whole table into an associative array through a
// collect plan riding the kernel's trace: entries stream into the
// array's builder one wire batch at a time, like schema.ReadAssoc, but
// the scan lands in the kernel's span tree. A non-empty families band
// restricts the scan to those locality groups.
func planReadAssoc(conn *accumulo.Connector, table, kernel string, q *telemetry.Query, families ...string) (*assoc.Assoc, error) {
	b := assoc.NewBuilder(semiring.PlusTimes)
	_, err := runPlanVisit(conn, plan.Collect(plan.Scan(table, plan.Constraint{Families: families})), kernel, "", q,
		func(e skv.Entry) error {
			if v, ok := skv.DecodeFloat(e.V); ok {
				b.Add(e.K.Row, e.K.ColQ, v)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// cellsToAssoc folds a plan's ⊕-folded collect cells into an
// associative array, exactly as reading the materialised table back
// would have (ReadAssoc also keys by row and colQ).
func cellsToAssoc(cells map[plan.Cell]float64) *assoc.Assoc {
	b := assoc.NewBuilder(semiring.PlusTimes)
	for c, v := range cells {
		b.Add(c.Row, c.ColQ, v)
	}
	return b.Build()
}

// adjSquareFoldPlan is the fused A² pattern shared by kTruss (per
// round), Jaccard (the numerator), and TriangleCount: the multiply's
// partial products stream from the TwoTableIterator straight back to
// the client, which ⊕-folds them per cell — the scratch table that used
// to hold A² and its write-then-rescan round-trip are gone. The fold is
// exact: + over float64 partial products is the same ⊕ the scratch
// table's sum combiner applied. Shared with Explain.
//
// Both sides of the multiply scan an adjacency table, so both carry the
// edge-channel family band: the hosted B scan through the step's
// constraint, the remote Aᵀ scan through the twoTable setting — on
// locality-grouped rfiles neither touches degree or other channels'
// blocks.
func adjSquareFoldPlan(table string) *plan.Node {
	band := schema.EdgeBand()
	return plan.CollectFold(
		plan.MultBanded(plan.Scan(table, plan.Constraint{Families: band}), table, "plus.times", band),
		"plus.times")
}

// KTrussAdjTable computes the k-truss of the graph stored in an
// adjacency table and writes the surviving adjacency matrix to outTable.
// Per iteration, the triangle-support matrix A² runs as a fused plan:
// the multiply's partial products (cur holds a symmetric matrix = its
// own transpose) stream back and ⊕-fold client-side, so a round only
// materialises the survivor table the next round must scan — the
// support matrix itself never touches a scratch table. The peel set is
// decided client-side from the folded support, exactly the Graphulo
// kTrussAdj loop structure. Returns the number of peel iterations.
// Every `<scratch>_it<N>_<trace>` intermediate (trace-suffixed, so
// concurrent kernels on one table cannot collide) is deleted before
// returning, on success and on error.
func KTrussAdjTable(conn *accumulo.Connector, table, outTable string, k int, scratch string) (iterCount int, err error) {
	q, done, err := startQuery(conn, "kTruss", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	ops := conn.TableOperations()
	trace := q.Trace().String()
	cur := table
	var scratchTables []string
	// Closure, not a direct defer: the slice grows as rounds allocate
	// scratch tables and must be read at return time.
	defer func() { dropScratch(conn, scratchTables, &err) }()
	for round := 0; ; round++ {
		res, err := runPlan(conn, adjSquareFoldPlan(cur), "kTruss", scratch, q)
		if err != nil {
			return iterCount, err
		}
		iterCount++
		// Surviving edges: edge (u,v) survives when A²(u,v) ≥ k−2 and
		// (u,v) is an edge of cur.
		aSq := cellsToAssoc(res.Cells)
		aCur, err := planReadAssoc(conn, cur, "kTruss", q, schema.EdgeBand()...)
		if err != nil {
			return iterCount, err
		}
		var keep []assoc.Entry
		removed := false
		for _, e := range aCur.Entries() {
			if aSq.At(e.Row, e.Col) >= float64(k-2) {
				keep = append(keep, e)
			} else {
				removed = true
			}
		}
		if !removed {
			// Fixed point: copy into outTable; the deferred cleanup
			// reclaims every intermediate.
			if ops.Exists(outTable) {
				if err := ops.Delete(outTable); err != nil {
					return iterCount, err
				}
			}
			if err := createSumTable(conn, outTable); err != nil {
				return iterCount, err
			}
			if err := schema.WriteAssoc(conn, outTable, assoc.New(keep, aCur.Ring())); err != nil {
				return iterCount, err
			}
			return iterCount, nil
		}
		next := fmt.Sprintf("%s_it%d_%s", scratch, round, trace)
		if ops.Exists(next) {
			if err := ops.Delete(next); err != nil {
				return iterCount, err
			}
		}
		scratchTables = append(scratchTables, next)
		noteScratch(conn, q)
		if err := createSumTable(conn, next); err != nil {
			return iterCount, err
		}
		if err := schema.WriteAssoc(conn, next, assoc.New(keep, aCur.Ring())); err != nil {
			return iterCount, err
		}
		cur = next
	}
}

// KTrussAdjTableMaterialized is the pre-plan kTruss driver: every
// round's support matrix A² lands in a `_sq` scratch table via
// TableMult and is scanned back — one write-then-rescan round-trip per
// round that the fused KTrussAdjTable eliminates. Kept as the
// equivalence baseline: both drivers must produce byte-identical
// results. Scratch names are trace-suffixed here too, so concurrent
// kernels sharing a scratch base cannot clobber each other.
func KTrussAdjTableMaterialized(conn *accumulo.Connector, table, outTable string, k int, scratch string) (iterCount int, err error) {
	q, done, err := startQuery(conn, "kTrussMaterialized", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	ops := conn.TableOperations()
	trace := q.Trace().String()
	cur := table
	var scratchTables []string
	defer func() { dropScratch(conn, scratchTables, &err) }()
	for round := 0; ; round++ {
		tmp := fmt.Sprintf("%s_sq%d_%s", scratch, round, trace)
		if ops.Exists(tmp) {
			if err := ops.Delete(tmp); err != nil {
				return iterCount, err
			}
		}
		scratchTables = append(scratchTables, tmp)
		noteScratch(conn, q)
		if _, err := TableMult(conn, cur, cur, tmp, MultOptions{Query: q}); err != nil {
			return iterCount, err
		}
		iterCount++
		aCur, err := schema.ReadAssoc(conn, cur)
		if err != nil {
			return iterCount, err
		}
		aSq, err := schema.ReadAssoc(conn, tmp)
		if err != nil {
			return iterCount, err
		}
		var keep []assoc.Entry
		removed := false
		for _, e := range aCur.Entries() {
			if aSq.At(e.Row, e.Col) >= float64(k-2) {
				keep = append(keep, e)
			} else {
				removed = true
			}
		}
		if !removed {
			if ops.Exists(outTable) {
				if err := ops.Delete(outTable); err != nil {
					return iterCount, err
				}
			}
			if err := createSumTable(conn, outTable); err != nil {
				return iterCount, err
			}
			if err := schema.WriteAssoc(conn, outTable, assoc.New(keep, aCur.Ring())); err != nil {
				return iterCount, err
			}
			return iterCount, nil
		}
		next := fmt.Sprintf("%s_it%d_%s", scratch, round, trace)
		if ops.Exists(next) {
			if err := ops.Delete(next); err != nil {
				return iterCount, err
			}
		}
		scratchTables = append(scratchTables, next)
		noteScratch(conn, q)
		if err := createSumTable(conn, next); err != nil {
			return iterCount, err
		}
		if err := schema.WriteAssoc(conn, next, assoc.New(keep, aCur.Ring())); err != nil {
			return iterCount, err
		}
		cur = next
	}
}

// createSumTable makes name a sum-combined table, installing the
// combiner even when the table pre-exists (see ensureResultTable — a
// pre-created table would otherwise keep versioning semantics and drop
// ⊕).
func createSumTable(conn *accumulo.Connector, name string) error {
	return ensureResultTable(conn, name, semiring.PlusTimes)
}

// JaccardTable computes Jaccard coefficients for the graph in an
// adjacency table: the common-neighbour counts come from a fused
// multiply plan (A·A through the table kernels, ⊕-folded at the client
// instead of materialised in a numerator table), the degree
// normalisation from the degree table, and the result lands in
// outTable. Only the strict upper triangle (by key order) is written,
// matching Algorithm 2's output shape. No scratch table is created.
func JaccardTable(conn *accumulo.Connector, table, degTable, outTable string) (written int, err error) {
	q, done, err := startQuery(conn, "Jaccard", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	res, err := runPlan(conn, adjSquareFoldPlan(table), "Jaccard", outTable, q)
	if err != nil {
		return 0, err
	}
	degs, err := readDegrees(conn, degTable, q, schema.DegBand()...)
	if err != nil {
		return 0, err
	}
	return writeJaccard(conn, outTable, cellsToAssoc(res.Cells), degs, q)
}

// JaccardTableMaterialized is the pre-plan Jaccard driver: the
// numerator A·A lands in a `<out>_num_<trace>` scratch table via
// TableMult and is scanned back. Kept as the equivalence baseline for
// the fused driver; the scratch name is trace-suffixed so concurrent
// kernels writing the same output base cannot collide. The scratch
// table is deleted before returning, on success and on error.
func JaccardTableMaterialized(conn *accumulo.Connector, table, degTable, outTable string) (written int, err error) {
	q, done, err := startQuery(conn, "JaccardMaterialized", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	ops := conn.TableOperations()
	tmp := fmt.Sprintf("%s_num_%s", outTable, q.Trace())
	if ops.Exists(tmp) {
		if err := ops.Delete(tmp); err != nil {
			return 0, err
		}
	}
	defer dropScratch(conn, []string{tmp}, &err)
	noteScratch(conn, q)
	if _, err := TableMult(conn, table, table, tmp, MultOptions{Query: q}); err != nil {
		return 0, err
	}
	degs, err := readDegrees(conn, degTable, q, schema.DegBand()...)
	if err != nil {
		return 0, err
	}
	num, err := schema.ReadAssoc(conn, tmp)
	if err != nil {
		return 0, err
	}
	return writeJaccard(conn, outTable, num, degs, q)
}

// writeJaccard normalises the common-neighbour counts and writes the
// strict upper triangle into outTable — the client-side tail shared by
// the fused and materializing Jaccard drivers.
func writeJaccard(conn *accumulo.Connector, outTable string, num *assoc.Assoc, degs map[string]float64, q *telemetry.Query) (written int, err error) {
	if err := createSumTable(conn, outTable); err != nil {
		return 0, err
	}
	w, err := conn.CreateBatchWriter(outTable, accumulo.BatchWriterConfig{})
	if err != nil {
		return 0, err
	}
	w.SetTrace(q)
	for _, e := range num.Entries() {
		if e.Row >= e.Col { // upper triangle only
			continue
		}
		union := degs[e.Row] + degs[e.Col] - e.Val
		if union <= 0 {
			continue
		}
		if err := w.PutFloat(e.Row, "", e.Col, e.Val/union); err != nil {
			return written, err
		}
		written++
	}
	return written, w.Close()
}

// NMFTable stages the paper's Algorithm 5 against a table: the sparse
// document×term matrix is read from the table (the only full-size
// transfer), factorised with the GraphBLAS NMF, and the W and H factors
// are written back to wTable and hTable. The k×k dense solves stay
// client-side, as in Graphulo's NMF.
func NMFTable(conn *accumulo.Connector, table, wTable, hTable string, cfg algo.NMFConfig) (res algo.NMFResult, err error) {
	q, done, err := startQuery(conn, "NMF", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	a, err := planReadAssoc(conn, table, "NMF", q)
	if err != nil {
		return algo.NMFResult{}, err
	}
	m, docs, terms := a.Matrix()
	res = algo.NMF(m, cfg)
	for _, spec := range []struct {
		name string
		d    *sparse.Dense
		rows []string
		cols []string
	}{
		{wTable, res.W, docs, topicNames(cfg.Topics)},
		{hTable, res.H, topicNames(cfg.Topics), terms},
	} {
		// Rebuild the factor tables from scratch: a stale table's sum
		// combiner would fold old factors into the new ones.
		if conn.TableOperations().Exists(spec.name) {
			if err := conn.TableOperations().Delete(spec.name); err != nil {
				return res, err
			}
		}
		if err := createSumTable(conn, spec.name); err != nil {
			return res, err
		}
		w, err := conn.CreateBatchWriter(spec.name, accumulo.BatchWriterConfig{})
		if err != nil {
			return res, err
		}
		w.SetTrace(q)
		for i := 0; i < spec.d.R; i++ {
			for j := 0; j < spec.d.C; j++ {
				if v := spec.d.At(i, j); v > 1e-12 {
					if err := w.PutFloat(spec.rows[i], "", spec.cols[j], v); err != nil {
						return res, err
					}
				}
			}
		}
		if err := w.Close(); err != nil {
			return res, err
		}
	}
	return res, nil
}

func topicNames(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = fmt.Sprintf("topic%02d", i)
	}
	return out
}

// TableDegrees builds a degree table server-side from an adjacency
// table via the rowReduce iterator and returns the number of vertices.
// The input scan rides the edge band — on locality-grouped storage
// only the edge-family block runs load — and output entries land in
// the degree channel family (schema.DegFamily), so grouped storage
// places them in their own block run.
func TableDegrees(conn *accumulo.Connector, table, degTable string) (int, error) {
	return TableRowReduceConstrained(conn, table, degTable, "plus", schema.DegFamily, "deg",
		ScanConstraint{Families: schema.EdgeBand()})
}

// TriangleCountTable counts triangles in the graph held by an adjacency
// table: a fused plan streams the A² partial products back and ⊕-folds
// them client-side, then the client streams A once and accumulates
// Σ A∘A² / 6. No scratch table is created; the scratch parameter is
// kept as the materialisation base should the planner ever need one
// (and for signature compatibility with the materializing variant).
func TriangleCountTable(conn *accumulo.Connector, table, scratch string) (count float64, err error) {
	q, done, err := startQuery(conn, "TriangleCount", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	res, err := runPlan(conn, adjSquareFoldPlan(table), "TriangleCount", scratch, q)
	if err != nil {
		return 0, err
	}
	sq := cellsToAssoc(res.Cells)
	total := 0.0
	err = visitTableEntries(conn, table, q, func(row, col string) {
		total += sq.At(row, col)
	})
	if err != nil {
		return 0, err
	}
	return total / 6, nil
}

// visitTableEntries streams a table's decodable entries to fn through a
// collect plan on the kernel's trace, banded to the edge channel.
func visitTableEntries(conn *accumulo.Connector, table string, q *telemetry.Query, fn func(row, col string)) error {
	_, err := runPlanVisit(conn, plan.Collect(plan.Scan(table, plan.Constraint{Families: schema.EdgeBand()})), "TriangleCount", "", q,
		func(e skv.Entry) error {
			if _, ok := skv.DecodeFloat(e.V); ok {
				fn(e.K.Row, e.K.ColQ)
			}
			return nil
		})
	return err
}

// TriangleCountTableMaterialized is the pre-plan triangle counter:
// TableMult materialises A² in a `<scratch>_<trace>` table that is
// scanned back — the round-trip the fused TriangleCountTable
// eliminates. The scratch table is deleted before returning, on success
// and on error.
func TriangleCountTableMaterialized(conn *accumulo.Connector, table, scratch string) (count float64, err error) {
	q, done, err := startQuery(conn, "TriangleCountMaterialized", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	ops := conn.TableOperations()
	tmp := fmt.Sprintf("%s_%s", scratch, q.Trace())
	if ops.Exists(tmp) {
		if err := ops.Delete(tmp); err != nil {
			return 0, err
		}
	}
	defer dropScratch(conn, []string{tmp}, &err)
	noteScratch(conn, q)
	if _, err := TableMult(conn, table, table, tmp, MultOptions{Query: q}); err != nil {
		return 0, err
	}
	a, err := schema.ReadAssoc(conn, table)
	if err != nil {
		return 0, err
	}
	sq, err := schema.ReadAssoc(conn, tmp)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, e := range a.Entries() {
		total += sq.At(e.Row, e.Col)
	}
	return total / 6, nil
}
