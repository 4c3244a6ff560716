package core

import (
	"fmt"
	"strconv"

	"graphulo/internal/accumulo"
	"graphulo/internal/iterator"
	"graphulo/internal/schema"
	"graphulo/internal/skv"
)

// This file hosts the incidence-table operations: EdgeBFS (Graphulo's
// breadth-first search over an edge/incidence schema) and the
// table-resident form of the paper's Algorithm 1 (k-truss on incidence
// matrices).

// EdgeBFS runs a k-hop BFS over an incidence schema: per hop, frontier
// vertices pull their incident edges from ET, then the edges pull their
// endpoints from E — two parallel batch scans per hop. Returns vertex →
// hop level, and the set of traversed edge ids.
func EdgeBFS(conn *accumulo.Connector, inc *schema.IncidenceSchema, seeds []string, hops int) (map[string]int, map[string]bool, error) {
	visited := map[string]int{}
	edges := map[string]bool{}
	frontier := append([]string(nil), seeds...)
	for _, s := range seeds {
		visited[s] = 0
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		// Vertices → incident edges via ET.
		incEdges, err := batchScanRows(conn, inc.TableT, frontier)
		if err != nil {
			return nil, nil, err
		}
		var edgeIDs []string
		for _, e := range incEdges {
			if !edges[e.K.ColQ] {
				edges[e.K.ColQ] = true
				edgeIDs = append(edgeIDs, e.K.ColQ)
			}
		}
		// Edges → endpoints via E.
		endpoints, err := batchScanRows(conn, inc.Table, edgeIDs)
		if err != nil {
			return nil, nil, err
		}
		var next []string
		for _, e := range endpoints {
			v := e.K.ColQ
			if _, seen := visited[v]; !seen {
				visited[v] = hop
				next = append(next, v)
			}
		}
		frontier = next
	}
	return visited, edges, nil
}

// batchScanRows scans the exact rows in parallel.
func batchScanRows(conn *accumulo.Connector, table string, rows []string) ([]skv.Entry, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	bs, err := conn.CreateBatchScanner(table, 8)
	if err != nil {
		return nil, err
	}
	ranges := make([]skv.Range, len(rows))
	for i, r := range rows {
		ranges[i] = skv.ExactRow(r)
	}
	bs.SetRanges(ranges)
	return bs.Entries()
}

// KTrussEdgeTable computes the k-truss on an incidence schema — the
// paper's Algorithm 1 with the heavy products running server-side:
//
//	A = EᵀE − diag      → TableMult(E, E) (rows of E are the inner dim)
//	R = EA              → TableMult(ET, A)
//	s = (R == 2)·1      → OneTable(equalsIndicator ∘ rowReduce)
//	x = find(s < k−2)   → one scan of the small support table
//
// and the surviving edge rows rewritten for the next round (the table
// variant recomputes rather than applying the in-memory incremental
// update, matching Graphulo's loop structure). It writes the final
// incidence matrix to outBase-E/-ET and returns the surviving edge ids.
func KTrussEdgeTable(conn *accumulo.Connector, inc *schema.IncidenceSchema, k int, outBase string) (survivorIDs []string, err error) {
	q, done, err := startQuery(conn, "kTruss", nil, "")
	if err != nil {
		return
	}
	defer func() { done(err) }()
	ops := conn.TableOperations()
	curE, curET := inc.Table, inc.TableT
	trace := q.Trace().String()
	var scratchTables []string
	defer func() { dropScratch(conn, scratchTables, &err) }()
	for round := 0; ; round++ {
		// Trace-suffixed like every other driver's intermediates, so
		// concurrent k-truss runs over the same outBase never collide —
		// and reclaimed on the way out now that each run names its own.
		scratch := func(name string) string {
			noteScratch(conn, q)
			t := fmt.Sprintf("%s_%s%d_%s", outBase, name, round, trace)
			scratchTables = append(scratchTables, t)
			return t
		}
		// A = EᵀE with the diagonal dropped at scan time below.
		aTable := scratch("A")
		if ops.Exists(aTable) {
			if err := ops.Delete(aTable); err != nil {
				return nil, err
			}
		}
		if _, err := TableMult(conn, curE, curE, aTable, MultOptions{Query: q}); err != nil {
			return nil, err
		}
		// Strip the diagonal client-side into A' (diag(EᵀE) = degrees).
		aPrime := scratch("Ad")
		if err := copyTableNoDiag(conn, aTable, aPrime); err != nil {
			return nil, err
		}
		// R = E·A' via TableMult(ET, A').
		rTable := scratch("R")
		if ops.Exists(rTable) {
			if err := ops.Delete(rTable); err != nil {
				return nil, err
			}
		}
		if _, err := TableMult(conn, curET, aPrime, rTable, MultOptions{Query: q}); err != nil {
			return nil, err
		}
		// s = (R==2)·1 server-side.
		sTable := scratch("S")
		if ops.Exists(sTable) {
			if err := ops.Delete(sTable); err != nil {
				return nil, err
			}
		}
		if _, err := oneTableQ(conn, rTable, sTable, []iterator.Setting{
			{Name: "equalsIndicator", Priority: 30, Opts: map[string]string{"target": "2"}},
			{Name: "rowReduce", Priority: 31, Opts: map[string]string{"monoid": "plus", "colQ": "support"}},
		}, ScanConstraint{}, q); err != nil {
			return nil, err
		}
		support, err := readDegrees(conn, sTable, q)
		if err != nil {
			return nil, err
		}
		// Every current edge; edges absent from s have zero support.
		eEntries, err := scanTable(conn, curE)
		if err != nil {
			return nil, err
		}
		edgeSet := map[string]bool{}
		for _, e := range eEntries {
			edgeSet[e.K.Row] = true
		}
		var survivors []string
		removed := false
		for edge := range edgeSet {
			if support[edge] >= float64(k-2) {
				survivors = append(survivors, edge)
			} else {
				removed = true
			}
		}
		if !removed || len(survivors) == 0 {
			// Fixed point (or empty): write the result schema.
			outE, outET := outBase+"E", outBase+"ET"
			for _, name := range []string{outE, outET} {
				if ops.Exists(name) {
					if err := ops.Delete(name); err != nil {
						return nil, err
					}
				}
				if err := createSumTable(conn, name); err != nil {
					return nil, err
				}
			}
			keep := map[string]bool{}
			for _, s := range survivors {
				keep[s] = true
			}
			wE, err := conn.CreateBatchWriter(outE, accumulo.BatchWriterConfig{})
			if err != nil {
				return nil, err
			}
			wT, err := conn.CreateBatchWriter(outET, accumulo.BatchWriterConfig{})
			if err != nil {
				return nil, err
			}
			for _, e := range eEntries {
				if !keep[e.K.Row] {
					continue
				}
				if err := wE.Put(e.K.Row, "", e.K.ColQ, e.V); err != nil {
					return nil, err
				}
				if err := wT.Put(e.K.ColQ, "", e.K.Row, e.V); err != nil {
					return nil, err
				}
			}
			if err := wE.Close(); err != nil {
				return nil, err
			}
			if err := wT.Close(); err != nil {
				return nil, err
			}
			return survivors, nil
		}
		// Rewrite the surviving incidence rows into fresh tables.
		nextE, nextET := scratch("En"), scratch("ETn")
		for _, name := range []string{nextE, nextET} {
			if ops.Exists(name) {
				if err := ops.Delete(name); err != nil {
					return nil, err
				}
			}
			if err := createSumTable(conn, name); err != nil {
				return nil, err
			}
		}
		keep := map[string]bool{}
		for _, s := range survivors {
			keep[s] = true
		}
		wE, err := conn.CreateBatchWriter(nextE, accumulo.BatchWriterConfig{})
		if err != nil {
			return nil, err
		}
		wT, err := conn.CreateBatchWriter(nextET, accumulo.BatchWriterConfig{})
		if err != nil {
			return nil, err
		}
		for _, e := range eEntries {
			if !keep[e.K.Row] {
				continue
			}
			if err := wE.Put(e.K.Row, "", e.K.ColQ, e.V); err != nil {
				return nil, err
			}
			if err := wT.Put(e.K.ColQ, "", e.K.Row, e.V); err != nil {
				return nil, err
			}
		}
		if err := wE.Close(); err != nil {
			return nil, err
		}
		if err := wT.Close(); err != nil {
			return nil, err
		}
		curE, curET = nextE, nextET
	}
}

// copyTableNoDiag copies a table dropping entries whose row equals the
// column qualifier (the diagonal).
func copyTableNoDiag(conn *accumulo.Connector, in, out string) error {
	entries, err := scanTable(conn, in)
	if err != nil {
		return err
	}
	ops := conn.TableOperations()
	if ops.Exists(out) {
		if err := ops.Delete(out); err != nil {
			return err
		}
	}
	if err := createSumTable(conn, out); err != nil {
		return err
	}
	w, err := conn.CreateBatchWriter(out, accumulo.BatchWriterConfig{})
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.K.Row == e.K.ColQ {
			continue
		}
		if err := w.Put(e.K.Row, "", e.K.ColQ, e.V); err != nil {
			return err
		}
	}
	return w.Close()
}

func scanTable(conn *accumulo.Connector, table string) ([]skv.Entry, error) {
	sc, err := conn.CreateScanner(table)
	if err != nil {
		return nil, err
	}
	return sc.Entries()
}

// AdjBFSServerFiltered is AdjBFS with the degree filter running
// server-side via the degreeFilter iterator (instead of the client-side
// map in AdjBFS): each hop's batch scan carries the filter so rejected
// neighbours never cross the wire.
func AdjBFSServerFiltered(conn *accumulo.Connector, table, degTable string, seeds []string, hops int, minDeg, maxDeg float64) (map[string]int, error) {
	visited := map[string]int{}
	frontier := append([]string(nil), seeds...)
	for _, s := range seeds {
		visited[s] = 0
	}
	for hop := 1; hop <= hops && len(frontier) > 0; hop++ {
		bs, err := conn.CreateBatchScanner(table, 8)
		if err != nil {
			return nil, err
		}
		ranges := make([]skv.Range, len(frontier))
		for i, v := range frontier {
			ranges[i] = skv.ExactRow(v)
		}
		bs.SetRanges(ranges)
		opts := map[string]string{
			"table":    degTable,
			"families": iterator.EncodeFamiliesOpt(schema.DegBand()),
		}
		if minDeg > 0 {
			opts["min"] = strconv.FormatFloat(minDeg, 'g', -1, 64)
		}
		if maxDeg > 0 {
			opts["max"] = strconv.FormatFloat(maxDeg, 'g', -1, 64)
		}
		bs.AddScanIterator(iterator.Setting{Name: "degreeFilter", Priority: 30, Opts: opts})
		var next []string
		err = bs.ForEach(func(e skv.Entry) error {
			nb := e.K.ColQ
			if _, seen := visited[nb]; !seen {
				visited[nb] = hop
				next = append(next, nb)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		frontier = next
	}
	return visited, nil
}
