package main

import (
	"fmt"
	"runtime"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// tick: the ticking market-data scenario in process. A ticker cell fans
// out to a cone of about 20k formulas, small enough that a run holds many
// ticks; a 50x10 viewport is registered, and each tick is Set on A1, then
// WaitRange on the viewport, then Drain. It exercises the recalc pipeline:
// depgraph cone, plan, formula eval, cache write-through and heap updates.
// The server is idle until the probes after the measured phase.

type tickSize struct {
	spec        workload.TickerSpec
	warm, ticks int
	setups      int
	loads       int
	// probe rounds, each of reads TCP reads, writes one-cell writes, one
	// paste and pairs insert/delete pairs
	probeWarm, probeRounds int
	reads, writes, pairs   int
}

func tickSizes(seconds int, smoke bool) tickSize {
	if smoke {
		return tickSize{spec: workload.TickerSpec{Intermediates: 60, LeavesPer: 20}, warm: 1, ticks: 3,
			setups: 2, loads: 2, probeWarm: 1, probeRounds: 2, reads: 10, writes: 2, pairs: 1}
	}
	return tickSize{spec: workload.TickerSpec{Intermediates: 200, LeavesPer: 100}, warm: 5, ticks: 12 * seconds,
		setups: 3, loads: 40, probeWarm: 2, probeRounds: 60, reads: 50, writes: 10, pairs: 3}
}

func runTick(ev *env, seconds int, smoke bool) (*result, error) {
	size := tickSizes(seconds, smoke)
	spec := size.spec
	r := newResult()
	var engines []*core.Engine
	db, twinDB, err := ev.setups(size.setups, r, func(db *rdbms.DB) error {
		e, err := core.New(db, "market", engineOpts)
		if err != nil {
			return err
		}
		engines = append(engines, e)
		if err := loadMarket(e, spec); err != nil {
			return err
		}
		return e.Save()
	})
	for i, e := range engines {
		if i < len(engines)-1 || err != nil {
			e.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	defer db.Close()
	e := engines[len(engines)-1]
	if err := ev.tr.decompose(workload.TickerMarket(spec)); err != nil {
		e.Close()
		return nil, err
	}
	cells := 1 + spec.Intermediates*(1+spec.LeavesPer)

	t, err := newTicker(ev, e, db, spec)
	for k := 0; err == nil && k < size.warm+size.ticks; k++ {
		if k == size.warm {
			runtime.GC()
		}
		err = t.tick(k >= size.warm, r)
	}
	if err == nil {
		t.finish(r)
		// Closing stops the recalc scheduler, whose final save would
		// otherwise still be allocating while the heap is read.
		err = e.Close()
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	heapMB(r)
	runtime.KeepAlive(e)
	if err := dbBytesPerCell(db, cells, r); err != nil {
		return nil, err
	}
	sample := sheet.NewRange(1, 1, spec.Intermediates, 2+spec.LeavesPer)
	ld := &loader{db: db, name: "market", check: func(e *core.Engine) error {
		if err := checkMarket(e, spec, sample, t.n); err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
		return nil
	}}
	if err := ld.loads(size.loads, r); err != nil {
		return nil, err
	}

	// The write probe's area lies below the market, so its row inserts and
	// deletes shift no formula.
	area := sheet.NewRange(spec.Intermediates+1, 1, spec.Intermediates+pasteRows+44, bandWidth)
	if twinDB != nil {
		if err := ev.tr.attach(twinDB, "market", area.To.Row, cells); err != nil {
			return nil, err
		}
	}
	srv, err := startServer(db)
	if err != nil {
		return nil, err
	}
	c, err := srv.dial("market")
	if err != nil {
		srv.stop()
		return nil, err
	}
	expect := func(row, col int) want {
		return marketValue(t.n, spec.Intermediates, spec.LeavesPer, row, col)
	}
	sc := newScroller(ev.seed, spec.Intermediates, 2+spec.LeavesPer)
	read := 0
	var lat []time.Duration
	var endReads func(int)
	reads := func(measured bool) {
		if measured && endReads == nil {
			endReads = ev.tr.readPhase(db)
		}
		for i := 0; i < size.reads; i++ {
			g := sc.next()
			start := time.Now()
			got, _, err := c.GetRange("market", g.From.Row, g.From.Col, g.To.Row, g.To.Col)
			end := time.Now()
			if !r.op(err) {
				continue
			}
			read += g.Area()
			r.check(checkCells(g, got, expect))
			if !measured {
				ev.tr.warm(g)
				continue
			}
			lat = append(lat, end.Sub(start))
			ev.tr.read(g, start, end)
		}
	}
	w := newTCPWriter(ev, c, db, "market", area, size.writes, size.pairs, expect)
	probePhase(size.probeWarm, size.probeRounds, reads, w.step(r))
	endReads(len(lat))
	r.setP50("read_p50_ms", lat)
	if err := r.setP99("read_p99_ms", lat, smoke); err != nil {
		return nil, err
	}
	w.finish(r)
	c.Close()
	wire := srv.ln.bytes.Load()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	r.set("serve.wire_bytes_per_cell", float64(wire)/float64(read+w.moved))
	r.set("serve.stale_unflagged_cells", 0)
	ev.tr.finish(r)
	return r, nil
}
