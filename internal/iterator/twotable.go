package iterator

import (
	"fmt"
	"slices"
	"strconv"

	"graphulo/internal/semiring"
	"graphulo/internal/skv"
)

// This file implements the Graphulo kernel iterators. The server-side
// sparse matrix multiply C = Aᵀ·B works exactly as in Graphulo:
//
//   - A is stored transposed in table AT (row key = inner index).
//   - A scan over table B's tablets carries a TwoTableIterator whose
//     remote source is AT. For each inner row i present in both tables,
//     it emits the outer products A(i,·)ᵀ ⊗ B(i,·).
//   - A RemoteWriteIterator above it batches those partial products into
//     table C through the normal write path; C carries a summing
//     combiner, so colliding partial products fold with ⊕.
//   - The scan client receives only one monitoring entry per tablet
//     with the count of entries written.
//
// The data never travels to the client: the multiply happens where B's
// tablets live, which is the paper's core systems idea (§I.A, §IV).

// RemoteSourceIterator reads entries of another table through the
// server-side client. Its options: "table" (required).
//
// The first Seek opens one remote scan covering that seek's range — the
// union of all ranges this iterator will see, which for a kernel pass
// is the pushed-down range intersected with the hosted tablet's row
// band, not the full table. Carrying both bounds to the remote scan
// lets the remote side skip tablets (and, through the rfile row index
// and bloom filters, files) that cannot overlap. The scan is streaming
// — the env hands back a cursor-backed SKVI holding wire batches, not a
// copy of the remote table — and later forward seeks within the opened
// range skip inside that open stream rather than re-issuing a remote
// scan. TwoTableIterator only ever seeks forward and clips its re-seeks
// to the opened band, so one tablet pass costs exactly one remote scan,
// matching Graphulo's streaming RemoteSourceIterator; only a seek
// outside the opened range, which no kernel issues, would force the
// source to re-open.
type RemoteSourceIterator struct {
	table    string
	families []string
	env      Env
	inner    SKVI
}

// NewRemoteSourceIterator returns an iterator over the named table.
func NewRemoteSourceIterator(table string, env Env) *RemoteSourceIterator {
	return &RemoteSourceIterator{table: table, env: env}
}

// NewRemoteSourceIteratorFamilies returns an iterator over the named
// table constrained to a column-family band: the band rides the remote
// scan request, so the serving tablets read only the matching rfile
// locality groups (empty = unconstrained).
func NewRemoteSourceIteratorFamilies(table string, families []string, env Env) *RemoteSourceIterator {
	return &RemoteSourceIterator{table: table, families: families, env: env}
}

// Seek implements SKVI.
func (r *RemoteSourceIterator) Seek(rng skv.Range) error {
	if r.inner == nil {
		it, err := OpenScannerFamilies(r.env, r.table, rng, r.families)
		if err != nil {
			return fmt.Errorf("remoteSource(%s): %w", r.table, err)
		}
		r.inner = it
	}
	return r.inner.Seek(rng)
}

// HasTop implements SKVI.
func (r *RemoteSourceIterator) HasTop() bool { return r.inner != nil && r.inner.HasTop() }

// Top implements SKVI.
func (r *RemoteSourceIterator) Top() skv.Entry { return r.inner.Top() }

// Next implements SKVI.
func (r *RemoteSourceIterator) Next() error { return r.inner.Next() }

// TwoTableIterator aligns the hosted table (source, playing B) with a
// remote table AT (playing Aᵀ) on row keys — the inner dimension of the
// multiply — and emits partial products of C = Aᵀ·B under the configured
// semiring. Output within one inner row is sorted; across inner rows it
// is not, so a RemoteWriteIterator (not a raw scan) must consume it.
//
// Products stay float64 until a consumer asks for bytes: Top encodes
// the current product on demand, while a folding consumer reads
// TopFloat (FloatSource) and never pays a decimal format-and-parse per
// product.
type TwoTableIterator struct {
	src    SKVI
	remote SKVI
	ring   semiring.Semiring

	// band is the whole-row projection of the current seek range: the
	// only inner rows this pass can align on. Remote (and re-issued
	// hosted) seeks are clipped to it, so the remote Aᵀ scan covers
	// exactly the pushed-down range ∩ the hosted tablet's rows — the
	// SpRef push-down — instead of the full table.
	band skv.Range

	buf []product // partial products of the current inner row
	pos int

	// Row buffers reused across inner rows: the two aligned rows and
	// B's numeric cells, decoded once per row rather than once per
	// product.
	aRow, bRow []skv.Entry
	bNum       []product
}

// product is one ⊗ result (or one decoded B cell) before encoding.
type product struct {
	k skv.Key
	v float64
}

// NewTwoTableIterator builds the multiply iterator. src iterates table B;
// remote iterates table AT.
func NewTwoTableIterator(src, remote SKVI, ring semiring.Semiring) *TwoTableIterator {
	return &TwoTableIterator{src: src, remote: remote, ring: ring}
}

// Seek implements SKVI. The range restricts B (the hosted side); the
// remote Aᵀ side is sought with the range's row band — rows outside it
// cannot align with anything this pass produces, so the remote scan
// prunes non-overlapping tablets and rfiles.
func (t *TwoTableIterator) Seek(rng skv.Range) error {
	t.band = rng.RowBand()
	if err := t.src.Seek(rng); err != nil {
		return err
	}
	if err := t.remote.Seek(t.band); err != nil {
		return err
	}
	return t.fill()
}

// fill advances both sides to the next common inner row and materialises
// its outer product into buf.
func (t *TwoTableIterator) fill() error {
	t.buf = t.buf[:0]
	t.pos = 0
	for t.src.HasTop() && t.remote.HasTop() {
		bRow := t.src.Top().K.Row
		aRow := t.remote.Top().K.Row
		switch {
		case aRow < bRow:
			if err := t.seekRowFrom(t.remote, bRow); err != nil {
				return err
			}
		case bRow < aRow:
			if err := t.seekRowFrom(t.src, aRow); err != nil {
				return err
			}
		default:
			var err error
			if t.aRow, err = readRow(t.remote, aRow, t.aRow[:0]); err != nil {
				return err
			}
			if t.bRow, err = readRow(t.src, bRow, t.bRow[:0]); err != nil {
				return err
			}
			t.cross()
			if len(t.buf) > 0 {
				return nil
			}
			// All products were semiring zeros; keep scanning.
		}
	}
	return nil
}

// seekRowFrom advances it until its row key is >= row. It uses Next for
// short gaps and re-Seeks for long ones, the standard tablet-server
// heuristic. Re-seeks are clipped to the pass's row band: the hosted
// side must not escape the pushed-down range, and the remote side's
// stream was only opened that wide.
func (t *TwoTableIterator) seekRowFrom(it SKVI, row string) error {
	for probes := 0; it.HasTop() && it.Top().K.Row < row; probes++ {
		if probes >= 10 {
			return it.Seek(skv.RowRange(row, "").Clip(t.band))
		}
		if err := it.Next(); err != nil {
			return err
		}
	}
	return nil
}

// readRow appends every entry of the given row from it to out.
func readRow(it SKVI, row string, out []skv.Entry) ([]skv.Entry, error) {
	for it.HasTop() && it.Top().K.Row == row {
		out = append(out, it.Top())
		if err := it.Next(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// cross emits ⊗-products of the aligned rows into buf: for AT entry
// (i, j → a) and B entry (i, k → b), the partial product is
// (j, k → a ⊗ b). Both rows arrive sorted, so when each lies in one
// column family the products come out sorted already; one linear check
// confirms it, and only rows mixing families pay for a sort.
func (t *TwoTableIterator) cross() {
	t.bNum = t.bNum[:0]
	for _, be := range t.bRow {
		if bv, ok := skv.DecodeFloat(be.V); ok {
			t.bNum = append(t.bNum, product{k: be.K, v: bv})
		}
	}
	for _, ae := range t.aRow {
		av, ok := skv.DecodeFloat(ae.V)
		if !ok {
			continue
		}
		for _, b := range t.bNum {
			p := t.ring.Mul(av, b.v)
			if t.ring.IsZero(p) {
				continue
			}
			t.buf = append(t.buf, product{k: skv.Key{Row: ae.K.ColQ, ColQ: b.k.ColQ}, v: p})
		}
	}
	for i := 1; i < len(t.buf); i++ {
		if skv.Compare(t.buf[i-1].k, t.buf[i].k) > 0 {
			slices.SortStableFunc(t.buf, func(x, y product) int { return skv.Compare(x.k, y.k) })
			return
		}
	}
}

// HasTop implements SKVI.
func (t *TwoTableIterator) HasTop() bool { return t.pos < len(t.buf) }

// Top implements SKVI, encoding the current product's value on demand.
func (t *TwoTableIterator) Top() skv.Entry {
	p := t.buf[t.pos]
	return skv.Entry{K: p.k, V: skv.EncodeFloat(p.v)}
}

// TopFloat implements FloatSource: the current product unencoded.
func (t *TwoTableIterator) TopFloat() (skv.Key, float64) {
	p := t.buf[t.pos]
	return p.k, p.v
}

// Next implements SKVI.
func (t *TwoTableIterator) Next() error {
	t.pos++
	if t.pos < len(t.buf) {
		return nil
	}
	return t.fill()
}

// RemoteWriteIterator drains its source, writing every entry to a target
// table in batches through the server-side client, then exposes a single
// monitoring entry whose value is the count written. This is how
// Graphulo returns results: into another table, not to the scan client.
//
// With a pre-aggregation buffer (preAggBytes > 0) the iterator performs
// a map-side combine before anything crosses the write path: numeric
// entries are ⊕-folded per output cell (row, colF, colQ) under the
// configured semiring's add — which must match the target table's
// combiner, exactly as the table's own ⊕ would fold them — and only the
// folded cells are written. The buffer is bounded: when its estimated
// footprint exceeds preAggBytes it spills to the target table and
// refills, so a pass over a power-law tablet cannot hold the whole
// output. Colliding spills (the same cell folded in two buffer
// generations, or on two tablets) still meet the table's combiner, so
// results are cell-identical to pre-aggregation off; only the write
// volume shrinks. Non-numeric values cannot fold and pass through
// directly.
type RemoteWriteIterator struct {
	src         SKVI
	table       string
	env         Env
	batchSize   int
	preAggBytes int
	ring        semiring.Semiring

	done    bool
	written int
	has     bool
	top     skv.Entry
}

// NewRemoteWriteIterator builds a write-back sink over src with
// pre-aggregation disabled.
func NewRemoteWriteIterator(src SKVI, table string, batchSize int, env Env) *RemoteWriteIterator {
	return NewPreAggRemoteWriteIterator(src, table, batchSize, 0, semiring.PlusTimes, env)
}

// NewPreAggRemoteWriteIterator builds a write-back sink whose partial
// products are ⊕-folded in a buffer of at most preAggBytes before they
// cross the write path (0 disables pre-aggregation). ring.Add must be
// the target table's combiner ⊕.
func NewPreAggRemoteWriteIterator(src SKVI, table string, batchSize, preAggBytes int, ring semiring.Semiring, env Env) *RemoteWriteIterator {
	if batchSize <= 0 {
		batchSize = 4096
	}
	return &RemoteWriteIterator{src: src, table: table, env: env,
		batchSize: batchSize, preAggBytes: preAggBytes, ring: ring}
}

// flushBatch writes one batch through the env.
func (w *RemoteWriteIterator) flushBatch(batch []skv.Entry) error {
	if len(batch) == 0 {
		return nil
	}
	if err := w.env.WriteEntries(w.table, batch); err != nil {
		return fmt.Errorf("remoteWrite(%s): %w", w.table, err)
	}
	w.written += len(batch)
	return nil
}

// Seek implements SKVI: it performs the entire drain eagerly so that by
// the time the tablet server returns from the scan call, the results are
// durably in the target table.
func (w *RemoteWriteIterator) Seek(rng skv.Range) error {
	if err := w.src.Seek(rng); err != nil {
		return err
	}
	w.written = 0
	var err error
	if w.preAggBytes > 0 {
		err = w.drainFolded()
	} else {
		err = w.drainDirect()
	}
	if err != nil {
		return err
	}
	w.top = skv.Entry{
		K: skv.Key{Row: "~monitor", ColF: "remoteWrite", ColQ: w.table},
		V: skv.EncodeFloat(float64(w.written)),
	}
	w.has = true
	w.done = true
	return nil
}

// drainDirect ships every source entry as-is, batchSize at a time.
func (w *RemoteWriteIterator) drainDirect() error {
	batch := make([]skv.Entry, 0, w.batchSize)
	for w.src.HasTop() {
		batch = append(batch, w.src.Top())
		if len(batch) >= w.batchSize {
			if err := w.flushBatch(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		if err := w.src.Next(); err != nil {
			return err
		}
	}
	return w.flushBatch(batch)
}

// aggCellOverhead approximates the per-cell bookkeeping of the fold
// buffer beyond the key strings (map bucket, float, key struct).
const aggCellOverhead = 64

// drainFolded is the pre-aggregating drain: numeric entries fold per
// cell under ⊕ in a map that grows on demand, spilling when its
// estimate reaches preAggBytes. A FloatSource hands its values over as
// float64; any other source's values are decoded from bytes.
func (w *RemoteWriteIterator) drainFolded() error {
	agg := make(map[skv.Key]float64)
	aggBytes, folded := 0, 0
	spill := func() error {
		if len(agg) == 0 {
			return nil
		}
		cells := make([]skv.Entry, 0, len(agg))
		for k, v := range agg {
			cells = append(cells, skv.Entry{K: k, V: skv.EncodeFloat(v)})
		}
		// Sorted spills keep batch boundaries deterministic for a given
		// input, which the equivalence tests lean on.
		slices.SortFunc(cells, func(a, b skv.Entry) int { return skv.Compare(a.K, b.K) })
		for len(cells) > 0 {
			n := min(w.batchSize, len(cells))
			if err := w.flushBatch(cells[:n]); err != nil {
				return err
			}
			cells = cells[n:]
		}
		agg = make(map[skv.Key]float64)
		aggBytes = 0
		return nil
	}
	floats, _ := w.src.(FloatSource)
	var raw []skv.Entry // non-numeric values pass through unfolded
	for w.src.HasTop() {
		var cell skv.Key
		var v float64
		ok := true
		if floats != nil {
			cell, v = floats.TopFloat()
		} else {
			e := w.src.Top()
			cell = e.K
			if v, ok = skv.DecodeFloat(e.V); !ok {
				raw = append(raw, e)
			}
		}
		if ok {
			cell.Ts = 0 // fold per logical cell; stamps are assigned at write time
			if acc, dup := agg[cell]; dup {
				agg[cell] = w.ring.Add(acc, v)
				folded++
			} else {
				agg[cell] = v
				aggBytes += len(cell.Row) + len(cell.ColF) + len(cell.ColQ) + aggCellOverhead
			}
			if aggBytes >= w.preAggBytes {
				if err := spill(); err != nil {
					return err
				}
			}
		} else if len(raw) >= w.batchSize {
			if err := w.flushBatch(raw); err != nil {
				return err
			}
			raw = raw[:0]
		}
		if err := w.src.Next(); err != nil {
			return err
		}
	}
	if err := spill(); err != nil {
		return err
	}
	if err := w.flushBatch(raw); err != nil {
		return err
	}
	countFolded(w.env, folded)
	return nil
}

// HasTop implements SKVI.
func (w *RemoteWriteIterator) HasTop() bool { return w.has }

// Top implements SKVI.
func (w *RemoteWriteIterator) Top() skv.Entry { return w.top }

// Next implements SKVI.
func (w *RemoteWriteIterator) Next() error {
	w.has = false
	return nil
}

// ColQRangeIter keeps entries whose column qualifier lies in the
// half-open band [min, max) ("" disables that bound) — the
// column-qualifier half of SpRef push-down, running server-side so
// pruned entries never reach the partial-product stage or the wire.
// Dropped entries are counted through the env's Counters
// (the entries_pruned_by_range counter on a cluster).
type ColQRangeIter struct {
	src      SKVI
	min, max string
	env      Env
}

// NewColQRangeIter wraps src with a column-qualifier band filter.
func NewColQRangeIter(src SKVI, min, max string, env Env) *ColQRangeIter {
	return &ColQRangeIter{src: src, min: min, max: max, env: env}
}

func (c *ColQRangeIter) admit(e skv.Entry) bool {
	if c.min != "" && e.K.ColQ < c.min {
		return false
	}
	if c.max != "" && e.K.ColQ >= c.max {
		return false
	}
	return true
}

func (c *ColQRangeIter) skip() error {
	dropped := 0
	for c.src.HasTop() && !c.admit(c.src.Top()) {
		dropped++
		if err := c.src.Next(); err != nil {
			countRangePruned(c.env, dropped)
			return err
		}
	}
	countRangePruned(c.env, dropped)
	return nil
}

// Seek implements SKVI.
func (c *ColQRangeIter) Seek(rng skv.Range) error {
	if err := c.src.Seek(rng); err != nil {
		return err
	}
	return c.skip()
}

// HasTop implements SKVI.
func (c *ColQRangeIter) HasTop() bool { return c.src.HasTop() }

// Top implements SKVI.
func (c *ColQRangeIter) Top() skv.Entry { return c.src.Top() }

// Next implements SKVI.
func (c *ColQRangeIter) Next() error {
	if err := c.src.Next(); err != nil {
		return err
	}
	return c.skip()
}

// DegreeFilterIter drops entries whose column qualifier (the neighbour
// vertex in an adjacency row) has a degree outside [min, max] according
// to a remote degree table — Graphulo's AdjBFS degree filtering running
// server-side. The degree table is read once per scan through the
// server-side client.
type DegreeFilterIter struct {
	src      SKVI
	degTable string
	families []string
	env      Env
	min, max float64
	degrees  map[string]float64
}

// NewDegreeFilterIter wraps src; min/max of 0 disable that bound.
// families bands the degree-table read (nil = unconstrained), so on a
// mixed table the filter's remote scan touches only the degree
// channel's locality groups.
func NewDegreeFilterIter(src SKVI, degTable string, families []string, min, max float64, env Env) *DegreeFilterIter {
	return &DegreeFilterIter{src: src, degTable: degTable, families: families, env: env, min: min, max: max}
}

// Seek implements SKVI.
func (d *DegreeFilterIter) Seek(rng skv.Range) error {
	if d.degrees == nil {
		it, err := OpenScannerFamilies(d.env, d.degTable, skv.FullRange(), d.families)
		if err != nil {
			return fmt.Errorf("degreeFilter(%s): %w", d.degTable, err)
		}
		d.degrees = map[string]float64{}
		for it.HasTop() {
			if v, ok := skv.DecodeFloat(it.Top().V); ok {
				d.degrees[it.Top().K.Row] = v
			}
			if err := it.Next(); err != nil {
				return err
			}
		}
	}
	if err := d.src.Seek(rng); err != nil {
		return err
	}
	return d.skip()
}

func (d *DegreeFilterIter) admit(e skv.Entry) bool {
	deg := d.degrees[e.K.ColQ]
	if d.min > 0 && deg < d.min {
		return false
	}
	if d.max > 0 && deg > d.max {
		return false
	}
	return true
}

func (d *DegreeFilterIter) skip() error {
	for d.src.HasTop() && !d.admit(d.src.Top()) {
		if err := d.src.Next(); err != nil {
			return err
		}
	}
	return nil
}

// HasTop implements SKVI.
func (d *DegreeFilterIter) HasTop() bool { return d.src.HasTop() }

// Top implements SKVI.
func (d *DegreeFilterIter) Top() skv.Entry { return d.src.Top() }

// Next implements SKVI.
func (d *DegreeFilterIter) Next() error {
	if err := d.src.Next(); err != nil {
		return err
	}
	return d.skip()
}

// RowScaleIter divides each entry by its row's value in a remote
// one-column table (e.g. a degree table): the server-side construction
// of D⁻¹A, which is how the PageRank walk matrix is materialised
// without moving A to the client.
type RowScaleIter struct {
	src      SKVI
	scaleTbl string
	families []string
	env      Env
	scales   map[string]float64
	cur      skv.Entry
	has      bool
}

// NewRowScaleIter wraps src, dividing by the remote per-row scale.
// families bands the scale-table read (nil = unconstrained).
func NewRowScaleIter(src SKVI, scaleTbl string, families []string, env Env) *RowScaleIter {
	return &RowScaleIter{src: src, scaleTbl: scaleTbl, families: families, env: env}
}

// Seek implements SKVI.
func (r *RowScaleIter) Seek(rng skv.Range) error {
	if r.scales == nil {
		it, err := OpenScannerFamilies(r.env, r.scaleTbl, skv.FullRange(), r.families)
		if err != nil {
			return fmt.Errorf("rowScale(%s): %w", r.scaleTbl, err)
		}
		r.scales = map[string]float64{}
		for it.HasTop() {
			if v, ok := skv.DecodeFloat(it.Top().V); ok {
				r.scales[it.Top().K.Row] = v
			}
			if err := it.Next(); err != nil {
				return err
			}
		}
	}
	if err := r.src.Seek(rng); err != nil {
		return err
	}
	return r.fill()
}

func (r *RowScaleIter) fill() error {
	r.has = false
	for r.src.HasTop() {
		e := r.src.Top()
		d := r.scales[e.K.Row]
		if d != 0 {
			if v, ok := skv.DecodeFloat(e.V); ok {
				r.cur = skv.Entry{K: e.K, V: skv.EncodeFloat(v / d)}
				r.has = true
				return nil
			}
		}
		if err := r.src.Next(); err != nil {
			return err
		}
	}
	return nil
}

// HasTop implements SKVI.
func (r *RowScaleIter) HasTop() bool { return r.has }

// Top implements SKVI.
func (r *RowScaleIter) Top() skv.Entry { return r.cur }

// Next implements SKVI.
func (r *RowScaleIter) Next() error {
	if err := r.src.Next(); err != nil {
		return err
	}
	return r.fill()
}

func init() {
	Register("rowScale", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["table"]
		if table == "" {
			return nil, fmt.Errorf("rowScale: missing table option")
		}
		return NewRowScaleIter(src, table, DecodeFamiliesOpt(opts["families"]), env), nil
	})
	Register("degreeFilter", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["table"]
		if table == "" {
			return nil, fmt.Errorf("degreeFilter: missing table option")
		}
		var minD, maxD float64
		var err error
		if s := opts["min"]; s != "" {
			if minD, err = strconv.ParseFloat(s, 64); err != nil {
				return nil, fmt.Errorf("degreeFilter: bad min %q", s)
			}
		}
		if s := opts["max"]; s != "" {
			if maxD, err = strconv.ParseFloat(s, 64); err != nil {
				return nil, fmt.Errorf("degreeFilter: bad max %q", s)
			}
		}
		return NewDegreeFilterIter(src, table, DecodeFamiliesOpt(opts["families"]), minD, maxD, env), nil
	})
	Register("remoteSource", func(_ SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["table"]
		if table == "" {
			return nil, fmt.Errorf("remoteSource: missing table option")
		}
		return NewRemoteSourceIteratorFamilies(table, DecodeFamiliesOpt(opts["families"]), env), nil
	})
	Register("twoTable", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["tableAT"]
		if table == "" {
			return nil, fmt.Errorf("twoTable: missing tableAT option")
		}
		ringName := opts["semiring"]
		if ringName == "" {
			ringName = "plus.times"
		}
		ring, ok := semiring.ByName(ringName)
		if !ok {
			return nil, fmt.Errorf("twoTable: unknown semiring %q", ringName)
		}
		remote := NewRemoteSourceIteratorFamilies(table, DecodeFamiliesOpt(opts["familiesAT"]), env)
		return NewTwoTableIterator(src, remote, ring), nil
	})
	Register("remoteWrite", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		table := opts["table"]
		if table == "" {
			return nil, fmt.Errorf("remoteWrite: missing table option")
		}
		bs := 0
		if s := opts["batchSize"]; s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("remoteWrite: bad batchSize %q", s)
			}
			bs = v
		}
		preAgg := 0
		if s := opts["preAggBytes"]; s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				return nil, fmt.Errorf("remoteWrite: bad preAggBytes %q", s)
			}
			preAgg = v
		}
		ring := semiring.PlusTimes
		if name := opts["semiring"]; name != "" {
			r, ok := semiring.ByName(name)
			if !ok {
				return nil, fmt.Errorf("remoteWrite: unknown semiring %q", name)
			}
			ring = r
		}
		return NewPreAggRemoteWriteIterator(src, table, bs, preAgg, ring, env), nil
	})
	Register("colRange", func(src SKVI, opts map[string]string, env Env) (SKVI, error) {
		min, max := opts["minColQ"], opts["maxColQ"]
		if min == "" && max == "" {
			return nil, fmt.Errorf("colRange: need minColQ and/or maxColQ")
		}
		return NewColQRangeIter(src, min, max, env), nil
	})
}
