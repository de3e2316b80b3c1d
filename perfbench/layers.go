package main

import (
	"sync"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/posmap"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// tracer is the per-layer half of a traced run. Every measured call is
// recorded as a span; calls a layer below would make are replayed on a twin
// (a second database built from the same seed, or an in-memory dependency
// graph and formula set) so the measured instance is not disturbed, and are
// recorded as child spans of the measured call.
type tracer struct {
	rec *recorder
	// mu serializes the twin: both sessions of the edit workload replay on
	// it.
	mu     sync.Mutex
	twinDB *rdbms.DB
	twin   *core.Engine
	pm     posmap.Map
	buf    []rdbms.RID
	// counters accumulated over the run
	structs, rewritten          int
	manifestBytes               int64
	ticks, tickCells, evalCells int
	values                      map[string]float64
}

func newTracer() *tracer {
	return &tracer{rec: newRecorder(), values: map[string]float64{}}
}

// attach opens the twin engine for sheet name on twinDB and builds a
// hierarchical positional map with one entry per sheet row.
func (t *tracer) attach(twinDB *rdbms.DB, name string, rows, cells int) error {
	if t == nil {
		return nil
	}
	e, err := core.Load(twinDB, name, twinOpts)
	if err != nil {
		return err
	}
	t.twinDB, t.twin = twinDB, e
	t.values["model.storage_bytes_per_cell"] = float64(e.Store().StorageBytes()) / float64(cells)
	t.pm = posmap.New("hierarchical")
	rids := make([]rdbms.RID, rows)
	for i := range rids {
		rids[i] = rdbms.RID{Page: rdbms.PageID(i / 64), Slot: uint16(i % 64)}
	}
	t.pm.InsertMany(1, rids)
	return nil
}

func (t *tracer) close() {
	if t.twin != nil {
		t.twin.Close()
	}
	if t.twinDB != nil {
		t.twinDB.Close()
	}
}

// warm replays an untimed read on the twin, so its cache sees the same
// sequence as the measured one.
func (t *tracer) warm(g sheet.Range) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.twin.GetCells(g)
}

// read records a measured get-range and replays it on the twin: the
// engine read (cache included), the uncached store read below it, and the
// positional-map lookup of its rows.
func (t *tracer) read(g sheet.Range, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.rec.add("serve.get_range", 0, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	cid := t.rec.timed("core.get_cells", id, func() { t.twin.GetCells(g) })
	t.rec.timed("model.get_cells", cid, func() { t.twin.Store().GetCells(g) })
	pos := 1 + (g.From.Row-1)%t.pm.Len()
	t.rec.timed("posmap.fetch_range", 0, func() { t.buf = t.pm.FetchRangeInto(t.buf[:0], pos, g.Rows()) })
}

// paste records a measured set-cells batch and replays it on the twin's
// engine and store.
func (t *tracer) paste(edits []core.CellEdit, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.rec.add("serve.set_cells", 0, start, end)
	writes := make([]model.CellWrite, len(edits))
	for i, ed := range edits {
		writes[i] = model.CellWrite{Row: ed.Row, Col: ed.Col, Cell: sheet.Cell{Value: sheet.ParseLiteral(ed.Input)}}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cid := t.rec.timed("core.set_cells", id, func() { t.twin.SetCells(edits) })
	t.rec.timed("model.update_cells", cid, func() { t.twin.Store().UpdateCells(writes) })
}

// structOp records a measured row insert (insert) or delete and replays it
// on the twin's engine; an insert is also timed on the twin's store and on
// the positional map, each undone untimed. manifest is the manifest bytes
// the measured edit staged.
func (t *tracer) structOp(insert bool, at, count int, start, end time.Time, manifest int64) {
	if t == nil {
		return
	}
	id := t.rec.add("serve.struct", 0, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.structs++
	t.manifestBytes += manifest
	cid := t.rec.timed("core.struct", id, func() {
		if insert {
			t.twin.InsertRowsAfter(at, count)
		} else {
			t.twin.DeleteRows(at, count)
		}
	})
	t.rewritten += t.twin.LastEditStats().Rewritten
	if !insert {
		return
	}
	st := t.twin.Store()
	t.rec.timed("model.insert_rows", cid, func() { st.InsertRowsAfter(at, count) })
	st.DeleteRows(at+1, count)
	pos := 1 + at%t.pm.Len()
	rids := make([]rdbms.RID, count)
	t.rec.timed("posmap.insert_many", 0, func() { t.pm.InsertMany(pos, rids) })
	t.pm.DeleteMany(pos, count)
}

// ioDelta returns the change of the measured database's counters since
// before.
func ioDelta(db *rdbms.DB, before rdbms.IOStats) rdbms.IOStats {
	now := db.Pool().Stats()
	return rdbms.IOStats{
		PoolHits:        now.PoolHits - before.PoolHits,
		PoolMisses:      now.PoolMisses - before.PoolMisses,
		PagesRead:       now.PagesRead - before.PagesRead,
		WALSyncs:        now.WALSyncs - before.WALSyncs,
		WALBytes:        now.WALBytes - before.WALBytes,
		WALAppends:      now.WALAppends - before.WALAppends,
		CheckpointPages: now.CheckpointPages - before.CheckpointPages,
		ManifestBytes:   now.ManifestBytes - before.ManifestBytes,
	}
}

// readPhase starts counting a phase of reads on db; the returned function
// ends it and derives the cache and buffer-pool metrics. The cache counts
// come from the twin, which saw the same reads.
func (t *tracer) readPhase(db *rdbms.DB) func(reads int) {
	if t == nil {
		return func(int) {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	io0 := db.Pool().Stats()
	c0 := t.twin.CacheStats()
	return func(reads int) {
		t.mu.Lock()
		defer t.mu.Unlock()
		io := ioDelta(db, io0)
		c := t.twin.CacheStats()
		hits, misses := float64(c.Hits-c0.Hits), float64(c.Misses-c0.Misses)
		t.values["cache.hit_ratio"] = ratio(hits, hits+misses)
		t.values["cache.misses_per_read"] = ratio(misses, float64(reads))
		t.values["cache.evictions_per_read"] = ratio(float64(c.Evictions-c0.Evictions), float64(reads))
		t.values["rdbms.pool_hit_ratio"] = ratio(float64(io.PoolHits), float64(io.PoolHits+io.PoolMisses))
		t.values["rdbms.pages_read_per_read"] = ratio(float64(io.PagesRead), float64(reads))
	}
}

// writePhase starts counting a phase of writes on db; the returned
// function ends it given the write requests and the cells they carried.
func (t *tracer) writePhase(db *rdbms.DB) func(writes, cells int) {
	if t == nil {
		return func(int, int) {}
	}
	io0 := db.Pool().Stats()
	return func(writes, cells int) {
		t.mu.Lock()
		defer t.mu.Unlock()
		io := ioDelta(db, io0)
		t.values["rdbms.wal_syncs_per_write"] = ratio(float64(io.WALSyncs), float64(writes))
		t.values["rdbms.wal_bytes_per_cell_written"] = ratio(float64(io.WALBytes), float64(cells))
		t.values["rdbms.checkpoint_pages_per_write"] = ratio(float64(io.CheckpointPages), float64(writes))
	}
}

// decompose times the hybrid optimizer on the workload's input sheet.
func (t *tracer) decompose(s *sheet.Sheet) error {
	if t == nil {
		return nil
	}
	var times []time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := hybrid.Decompose(s, "agg", hybrid.Options{Params: hybrid.PostgresCost, Models: hybrid.AllModels}); err != nil {
			return err
		}
		times = append(times, time.Since(start))
	}
	t.values["hybrid.decompose_ms"] = ms(quantile(times, 0.5))
	return nil
}

// finish derives the span-based metrics and copies every per-layer value
// into r.
func (t *tracer) finish(r *result) {
	if t == nil {
		return
	}
	rec := t.rec
	med := func(s []time.Duration) time.Duration { return quantile(s, 0.5) }
	t.values["serve.get_range_self_ms"] = ms(med(rec.selfTimes("serve.get_range")))
	t.values["serve.set_cells_self_ms"] = ms(med(rec.selfTimes("serve.set_cells")))
	t.values["core.get_cells_ms"] = ms(med(rec.durations("core.get_cells")))
	t.values["core.set_cells_ms"] = ms(med(rec.durations("core.set_cells")))
	t.values["core.struct_ms"] = ms(med(rec.durations("core.struct")))
	t.values["core.formulas_rewritten_per_struct"] = ratio(float64(t.rewritten), float64(t.structs))
	t.values["core.recalc_cells_per_tick"] = ratio(float64(t.tickCells), float64(t.ticks))
	t.values["core.recalc_self_ms"] = ms(med(rec.selfTimes("core.drain")))
	t.values["model.get_cells_ms"] = ms(med(rec.durations("model.get_cells")))
	t.values["model.update_cells_ms"] = ms(med(rec.durations("model.update_cells")))
	t.values["model.insert_rows_ms"] = ms(med(rec.durations("model.insert_rows")))
	t.values["posmap.fetch_range_us"] = us(med(rec.durations("posmap.fetch_range")))
	t.values["posmap.insert_many_us"] = us(med(rec.durations("posmap.insert_many")))
	t.values["rdbms.manifest_bytes_per_struct"] = ratio(float64(t.manifestBytes), float64(t.structs))
	t.values["depgraph.reach_ms"] = ms(med(rec.durations("depgraph.reach")))
	t.values["depgraph.cone_ms"] = ms(med(rec.durations("depgraph.cone")))
	var eval time.Duration
	for _, d := range rec.durations("formula.eval") {
		eval += d
	}
	t.values["formula.eval_us_per_cell"] = ratio(us(eval), float64(t.evalCells))
	for k, v := range t.values {
		r.values[k] = v
	}
}

// tickTwin replays a ticker market's recalc outside the engine: the same
// formulas registered in an in-memory dependency graph and evaluated over
// a plain map of values.
type tickTwin struct {
	g     *depgraph.Graph
	exprs map[sheet.Ref]formula.Expr
	order []sheet.Ref
	vals  mapResolver
}

// newTickTwin parses the market's formulas (timing the parse) and
// registers them.
func (t *tracer) newTickTwin(formulas map[sheet.Ref]string) (*tickTwin, error) {
	if t == nil {
		return nil, nil
	}
	tw := &tickTwin{g: depgraph.New(), exprs: map[sheet.Ref]formula.Expr{}, vals: mapResolver{}}
	var times []time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		for ref, src := range formulas {
			e, err := formula.Parse(src)
			if err != nil {
				return nil, err
			}
			tw.exprs[ref] = e
		}
		times = append(times, time.Since(start))
	}
	t.values["formula.parse_us_per_cell"] = us(quantile(times, 0.5)) / float64(len(formulas))
	for ref, e := range tw.exprs {
		tw.g.Set(ref, formula.Refs(e))
	}
	tw.order, _ = tw.g.Affected(sheet.Ref{Row: 1, Col: 1})
	return tw, nil
}

// tick records one measured tick (from the edit until Drain returned) and
// replays its recalc on the twin: the dependency walk at edit time, the
// cone, and the evaluation of every cone cell. pending is the engine's
// pending count right after the edit returned.
func (t *tracer) tick(tw *tickTwin, price float64, start, drained time.Time, pending int) {
	if t == nil {
		return
	}
	a1 := []sheet.Ref{{Row: 1, Col: 1}}
	t.rec.timed("depgraph.reach", 0, func() { tw.g.Reach(a1) })
	id := t.rec.add("core.drain", 0, start, drained)
	t.rec.timed("depgraph.cone", id, func() { tw.g.ConeFrom(a1) })
	tw.vals[a1[0]] = sheet.Number(price)
	t.rec.timed("formula.eval", id, func() {
		for _, ref := range tw.order {
			tw.vals[ref] = formula.Eval(tw.exprs[ref], tw.vals)
		}
	})
	t.ticks++
	t.tickCells += pending
	t.evalCells += len(tw.order)
}

// mapResolver resolves formula references over a plain map.
type mapResolver map[sheet.Ref]sheet.Value

func (m mapResolver) CellValue(r sheet.Ref) sheet.Value { return m[r] }

func (m mapResolver) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Value) bool) {
	for row := g.From.Row; row <= g.To.Row; row++ {
		for col := g.From.Col; col <= g.To.Col; col++ {
			r := sheet.Ref{Row: row, Col: col}
			if v, ok := m[r]; ok && !fn(r, v) {
				return
			}
		}
	}
}
