package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve/client"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// Every workload reports every end-to-end metric. The operations outside a
// workload's own make-up run as probes after its measured phase, so they
// cannot disturb it: TCP writes, pastes and row insert/delete pairs on the
// workload's sheet, TCP reads (tick only), and ticks of a small ticker
// market on a sheet of its own in the same database (browse and edit).
//
// A probe phase interleaves its families round by round, so each family's
// samples spread over the whole phase rather than one short stretch of it;
// the machine's slow spells then shift every probe metric a little instead
// of one metric a lot.

// probePhase runs warm rounds, then measured rounds, each calling every
// step once with whether the round is measured.
func probePhase(warm, rounds int, steps ...func(measured bool)) {
	runtime.GC()
	for round := 0; round < warm+rounds; round++ {
		for _, step := range steps {
			step(round >= warm)
		}
	}
}

// pasteRows x bandWidth cells make one 4096-cell paste.
const (
	pasteRows = 256
	bandWidth = 16
)

// tcpWriter is the TCP write probe: per round, writes one-cell writes, one
// paste and pairs insert/delete pairs inside area (at least pasteRows rows
// and bandWidth columns) of the named sheet. It tracks its own writes on
// top of before, the area's content before the probe.
type tcpWriter struct {
	ev            *env
	c             *client.Client
	db            *rdbms.DB
	name          string
	area          sheet.Range
	writes, pairs int
	before        func(row, col int) want

	rng                  *rand.Rand
	round                int
	over                 map[sheet.Ref]float64
	lat, pastes, structs []time.Duration
	// requests and cells count the measured writes; moved counts every
	// cell the probe sent or read back.
	requests, cells, moved int
	endPhase               func(writes, cells int)
}

func newTCPWriter(ev *env, c *client.Client, db *rdbms.DB, name string, area sheet.Range, writes, pairs int,
	before func(row, col int) want) *tcpWriter {
	return &tcpWriter{ev: ev, c: c, db: db, name: name, area: area, writes: writes, pairs: pairs, before: before,
		rng: rand.New(rand.NewSource(ev.seed*7919 + 11)), over: map[sheet.Ref]float64{}}
}

// step returns the writer's probe step.
func (w *tcpWriter) step(r *result) func(bool) {
	return func(measured bool) {
		if measured && w.endPhase == nil {
			w.endPhase = w.ev.tr.writePhase(w.db)
		}
		w.round++
		area := w.area
		for i := 0; i < w.writes; i++ {
			ref := sheet.Ref{Row: area.From.Row + w.rng.Intn(area.Rows()), Col: area.From.Col + w.rng.Intn(area.Cols())}
			v := float64(7_000_000 + w.round*w.writes + i)
			start := time.Now()
			_, err := w.c.Set(w.name, ref.Row, ref.Col, strconv.FormatFloat(v, 'f', -1, 64))
			d := time.Since(start)
			if r.op(err) {
				w.over[ref] = v
				w.moved++
				if measured {
					w.lat = append(w.lat, d)
					w.cells++
					w.requests++
				}
			}
		}
		// Pastes walk the area in a fixed order: their cost depends on
		// where earlier pastes landed, which must not vary with the seed.
		top := area.From.Row + w.round*pasteRows*3/4%(area.Rows()-pasteRows+1)
		left := area.From.Col + w.round*3%(area.Cols()-bandWidth+1)
		edits := make([]core.CellEdit, 0, pasteRows*bandWidth)
		for row := top; row < top+pasteRows; row++ {
			for col := left; col < left+bandWidth; col++ {
				v := float64(8_000_000 + w.round*pasteRows*bandWidth + len(edits))
				edits = append(edits, core.CellEdit{Row: row, Col: col, Input: strconv.FormatFloat(v, 'f', -1, 64)})
			}
		}
		start := time.Now()
		_, err := w.c.SetCells(w.name, edits)
		end := time.Now()
		if r.op(err) {
			for _, ed := range edits {
				f, _ := strconv.ParseFloat(ed.Input, 64)
				w.over[sheet.Ref{Row: ed.Row, Col: ed.Col}] = f
			}
			w.moved += len(edits)
			if measured {
				w.pastes = append(w.pastes, end.Sub(start))
				w.ev.tr.paste(edits, start, end)
				w.cells += len(edits)
				w.requests++
			}
		}
		// An insert/delete pair leaves the sheet as it was: the inserted
		// blank row is the one deleted.
		for i := 0; i < w.pairs; i++ {
			at := area.From.Row + w.rng.Intn(area.Rows()-1)
			for _, insert := range []bool{true, false} {
				pos := at + 1
				m0 := w.db.Pool().Stats().ManifestBytes
				start := time.Now()
				var err error
				if insert {
					pos = at
					_, err = w.c.InsertRows(w.name, at, 1)
				} else {
					_, err = w.c.DeleteRows(w.name, pos, 1)
				}
				end := time.Now()
				if r.op(err) && measured {
					w.requests++
					w.structs = append(w.structs, end.Sub(start))
					w.ev.tr.structOp(insert, pos, 1, start, end, w.db.Pool().Stats().ManifestBytes-m0)
				}
			}
		}
	}
}

// finish reports the write metrics, reads the area back to check it, and
// returns the sheet's expected content after the probe.
func (w *tcpWriter) finish(r *result) func(row, col int) want {
	if w.endPhase != nil {
		w.endPhase(w.requests, w.cells)
	}
	r.setP50("write_p50_ms", w.lat)
	r.setP50("paste_p50_ms", w.pastes)
	r.setP50("struct_p50_ms", w.structs)
	after := func(row, col int) want {
		if v, ok := w.over[sheet.Ref{Row: row, Col: col}]; ok {
			return num(v)
		}
		return w.before(row, col)
	}
	got, _, err := w.c.GetRange(w.name, w.area.From.Row, w.area.From.Col, w.area.To.Row, w.area.To.Col)
	if r.op(err) {
		w.moved += w.area.Area()
		r.check(checkCells(w.area, got, after))
	}
	return after
}

// marketFormulas lists the market's formulas by cell.
func marketFormulas(spec workload.TickerSpec) map[sheet.Ref]string {
	out := map[sheet.Ref]string{}
	workload.TickerMarket(spec).Each(func(r sheet.Ref, c sheet.Cell) {
		if c.HasFormula() {
			out[r] = c.Formula
		}
	})
	return out
}

// loadMarket bulk-loads the ticker market into e and waits for the
// initial recalc.
func loadMarket(e *core.Engine, spec workload.TickerSpec) error {
	edits := workload.Edits(workload.TickerMarket(spec))
	ce := make([]core.CellEdit, len(edits))
	for i, ed := range edits {
		ce[i] = core.CellEdit{Row: ed.Row, Col: ed.Col, Input: ed.Input}
	}
	if err := e.SetCells(ce); err != nil {
		return err
	}
	return e.Drain()
}

// checkMarket compares g with the market's closed form after tick n.
func checkMarket(e *core.Engine, spec workload.TickerSpec, g sheet.Range, n int) error {
	got := e.GetCells(g)
	if err := e.ReadErr(); err != nil {
		return err
	}
	return checkCells(g, got, func(row, col int) want {
		return marketValue(n, spec.Intermediates, spec.LeavesPer, row, col)
	})
}

// ticker ticks the market in e in a closed loop: Set on A1, WaitRange on
// the registered viewport, Drain. After convergence the viewport, and
// after the drain the viewport and one row of the cone, must equal the
// closed form.
type ticker struct {
	ev   *env
	e    *core.Engine
	db   *rdbms.DB
	spec workload.TickerSpec
	vp   sheet.Range
	vpID int
	tw   *tickTwin
	rng  *rand.Rand
	// n is the last tick applied.
	n                   int
	rets, convs, drains []time.Duration
	io0                 rdbms.IOStats
}

func newTicker(ev *env, e *core.Engine, db *rdbms.DB, spec workload.TickerSpec) (*ticker, error) {
	tw, err := ev.tr.newTickTwin(marketFormulas(spec))
	if err != nil {
		return nil, err
	}
	vp := spec.Viewport()
	return &ticker{ev: ev, e: e, db: db, spec: spec, vp: vp, vpID: e.RegisterViewport(vp), tw: tw,
		rng: rand.New(rand.NewSource(ev.seed*104729 + 3))}, nil
}

// tick applies one tick; measured ticks are sampled.
func (t *ticker) tick(measured bool, r *result) error {
	if measured && t.rets == nil {
		t.io0 = t.db.Pool().Stats()
	}
	t.n++
	e := t.e
	start := time.Now()
	err := e.Set(1, 1, strconv.Itoa(100+t.n))
	ret := time.Since(start)
	if !r.op(err) {
		return fmt.Errorf("tick %d: %w", t.n, err)
	}
	pending := 0
	if t.ev.tr != nil {
		pending = e.PendingCount()
	}
	err = e.WaitRange(t.vp)
	conv := time.Since(start)
	if !r.op(err) {
		return err
	}
	r.check(checkMarket(e, t.spec, t.vp, t.n))
	err = e.Drain()
	drained := time.Now()
	if !r.op(err) {
		return err
	}
	r.check(checkMarket(e, t.spec, t.vp, t.n))
	row := 1 + t.rng.Intn(t.spec.Intermediates)
	r.check(checkMarket(e, t.spec, sheet.NewRange(row, 1, row, 2+t.spec.LeavesPer), t.n))
	if measured {
		t.rets = append(t.rets, ret)
		t.convs = append(t.convs, conv)
		t.drains = append(t.drains, drained.Sub(start))
		t.ev.tr.tick(t.tw, float64(100+t.n), start, drained, pending)
	}
	return nil
}

// step returns a probe step ticking k times per round. A failed tick has
// been counted; the ticking stops there.
func (t *ticker) step(k int, r *result) func(bool) {
	stopped := false
	return func(measured bool) {
		for i := 0; i < k && !stopped; i++ {
			stopped = t.tick(measured, r) != nil
		}
	}
}

// finish reports the tick metrics and unregisters the viewport.
func (t *ticker) finish(r *result) {
	t.e.UnregisterViewport(t.vpID)
	if t.ev.tr != nil {
		t.ev.tr.values["rdbms.dirty_pages_per_tick"] = ratio(float64(ioDelta(t.db, t.io0).WALAppends), float64(len(t.rets)))
	}
	r.setP50("tick_return_p50_ms", t.rets)
	r.setP50("converge_p50_ms", t.convs)
	r.setP50("drain_p50_ms", t.drains)
}

// probeSpec is the probe market of browse and edit: 50 intermediates of
// 20 leaves, a 1050-cell cone.
func probeSpec(smoke bool) workload.TickerSpec {
	if smoke {
		return workload.TickerSpec{Intermediates: 10, LeavesPer: 10}
	}
	return workload.TickerSpec{Intermediates: 50, LeavesPer: 20}
}

// newProbeMarket creates the probe market on a sheet of its own in db.
func newProbeMarket(ev *env, db *rdbms.DB, smoke bool) (*ticker, error) {
	e, err := core.New(db, "probe", engineOpts)
	if err != nil {
		return nil, err
	}
	if err := loadMarket(e, probeSpec(smoke)); err != nil {
		e.Close()
		return nil, err
	}
	t, err := newTicker(ev, e, db, probeSpec(smoke))
	if err != nil {
		e.Close()
	}
	return t, err
}

// loader reopens the named sheet through core.Load; check inspects each
// reopened engine.
type loader struct {
	db    *rdbms.DB
	name  string
	check func(e *core.Engine) error
	lat   []time.Duration
}

// load reopens the sheet once; a measured load is sampled.
func (l *loader) load(measured bool, r *result) error {
	runtime.GC()
	start := time.Now()
	e, err := core.Load(l.db, l.name, engineOpts)
	d := time.Since(start)
	if !r.op(err) {
		return nil
	}
	if measured {
		l.lat = append(l.lat, d)
	}
	r.check(l.check(e))
	return e.Close()
}

// loads reopens the sheet n times and reports load_p50_ms.
func (l *loader) loads(n int, r *result) error {
	for i := 0; i < n; i++ {
		if err := l.load(true, r); err != nil {
			return err
		}
	}
	r.setP50("load_p50_ms", l.lat)
	return nil
}
