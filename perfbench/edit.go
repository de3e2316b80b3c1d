package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/serve/client"
	"dataspread/internal/sheet"
	"dataspread/internal/workload"
)

// edit: a sheet that fits in the cache, holding a typing table (columns
// A..H) with a row-total formula column I = SUM(A r:H r) and a paste band
// (K..Z) to its right. Over TCP one writer session runs the paper's update
// mix (60% cell updates, 20% new cells, 20% row inserts) interleaved with
// 4096-cell pastes and row deletes, while a second session scrolls the
// edited region with GetRangePending. It exercises the write path and the
// reads that run beside it.

type editSize struct {
	rows       int // typing and band rows
	setups     int
	warmRounds int
	rounds     int
	warmReads  int
	reads      int
	// after the server closes: probe rounds, each of one reopen and
	// ticks probe ticks
	probeWarm, probeRounds, ticks int
}

func editSizes(seconds int, smoke bool) editSize {
	if smoke {
		return editSize{rows: 300, setups: 2, warmRounds: 1, rounds: 2, warmReads: 5, reads: 20,
			probeWarm: 1, probeRounds: 2, ticks: 2}
	}
	return editSize{rows: 2048, setups: 3, warmRounds: 1, rounds: 10 * seconds, warmReads: 100,
		reads: 1200 * seconds, probeWarm: 2, probeRounds: 40, ticks: 15}
}

// One writer round: the paper's mix of 12 updates, 4 new cells and 4 row
// inserts, plus one paste and two deletes of two rows, so the sheet keeps
// its size.
var editRound = []string{
	"update", "update", "update", "update", "update", "update",
	"update", "update", "update", "update", "update", "update",
	"new", "new", "new", "new",
	"insert", "insert", "insert", "insert",
	"paste", "delete", "delete",
}

// newEditSheet generates the input and the shadow model of it: typing
// columns A..F filled, G..H blank, every row's total, and the band
// stamped by paste 0.
func newEditSheet(seed int64, rows int) (*sheet.Sheet, *shadow) {
	s := sheet.New("edit")
	sh := &shadow{}
	for r := 1; r <= rows; r++ {
		for c := 1; c <= 6; c++ {
			v := float64(mix(uint64(seed), uint64(r)<<20|uint64(c)) % 1000)
			s.SetValue(r, c, sheet.Number(v))
			sh.setValue(r, c, v)
		}
		s.SetFormula(r, totalCol, fmt.Sprintf("SUM(A%d:H%d)", r, r))
		sh.rows[r-1].total = true
		for c := bandFirst; c <= bandLast; c++ {
			s.SetValue(r, c, sheet.Number(stamp(0, c)))
			sh.setValue(r, c, stamp(0, c))
		}
	}
	return s, sh
}

// sheetEdits flattens a sheet into one bulk-load batch.
func sheetEdits(s *sheet.Sheet) []core.CellEdit {
	var edits []core.CellEdit
	for _, ed := range workload.Edits(s) {
		edits = append(edits, core.CellEdit{Row: ed.Row, Col: ed.Col, Input: ed.Input})
	}
	return edits
}

// compareShadow reads the whole sheet (two rows past its end) and
// compares it with the shadow model.
func compareShadow(sh *shadow, get func(g sheet.Range) ([][]sheet.Cell, error)) error {
	g := sheet.NewRange(1, 1, len(sh.rows)+2, bandLast)
	got, err := get(g)
	if err != nil {
		return err
	}
	return checkCells(g, got, sh.expect)
}

func runEdit(ev *env, seconds int, smoke bool) (*result, error) {
	size := editSizes(seconds, smoke)
	r := newResult()
	input, sh := newEditSheet(ev.seed, size.rows)
	db, twinDB, err := ev.setups(size.setups, r, func(db *rdbms.DB) error {
		s, _ := newEditSheet(ev.seed, size.rows)
		e, err := core.New(db, "edit", engineOpts)
		if err != nil {
			return err
		}
		err = e.SetCells(sheetEdits(s))
		if err == nil {
			err = e.Drain()
		}
		if err == nil {
			err = e.Save()
		}
		if cerr := e.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = db.Checkpoint()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := ev.tr.decompose(input); err != nil {
		return nil, err
	}
	if twinDB != nil {
		if err := ev.tr.attach(twinDB, "edit", size.rows, sh.cells()); err != nil {
			return nil, err
		}
	}

	srv, err := startServer(db)
	if err != nil {
		return nil, err
	}
	wc, err := srv.dial("edit")
	if err != nil {
		srv.stop()
		return nil, err
	}
	rc, err := srv.dial("edit")
	if err != nil {
		wc.Close()
		srv.stop()
		return nil, err
	}
	var rows atomic.Int64
	rows.Store(int64(size.rows))
	rr := newResult()
	var rd editReads
	var wg sync.WaitGroup
	runtime.GC()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd = editReader(ev, rc, db, size, &rows, rr)
	}()
	wr := editWriter(ev, wc, db, size, sh, &rows, r)
	wg.Wait()
	r.attempted += rr.attempted
	r.failed += rr.failed
	r.problems = append(r.problems, rr.problems...)
	r.setP50("read_p50_ms", rd.lat)
	if err := r.setP99("read_p99_ms", rd.lat, smoke); err != nil {
		return nil, err
	}
	r.setP50("write_p50_ms", wr.writes)
	r.setP50("paste_p50_ms", wr.pastes)
	r.setP50("struct_p50_ms", wr.structs)
	r.set("serve.stale_unflagged_cells", float64(rd.stale))

	// The final drain, then the whole sheet over TCP against the model.
	if r.op(waitConverged(wc, "edit")) {
		r.check(compareShadow(sh, func(g sheet.Range) ([][]sheet.Cell, error) {
			got, _, err := wc.GetRange("edit", g.From.Row, g.From.Col, g.To.Row, g.To.Col)
			return got, err
		}))
	}
	heapMB(r)
	wc.Close()
	rc.Close()
	wire := srv.ln.bytes.Load()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	moved := rd.cells + wr.cells + (len(sh.rows)+2)*bandLast
	r.set("serve.wire_bytes_per_cell", float64(wire)/float64(moved))
	if err := dbBytesPerCell(db, sh.cells(), r); err != nil {
		return nil, err
	}
	market, err := newProbeMarket(ev, db, smoke)
	if err != nil {
		return nil, err
	}
	ld := &loader{db: db, name: "edit", check: func(e *core.Engine) error {
		err := compareShadow(sh, func(g sheet.Range) ([][]sheet.Cell, error) {
			return e.GetCells(g), e.ReadErr()
		})
		if err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
		return nil
	}}
	var loadErr error
	load := func(measured bool) {
		if loadErr == nil {
			loadErr = ld.load(measured, r)
		}
	}
	probePhase(size.probeWarm, size.probeRounds, load, market.step(size.ticks, r))
	market.finish(r)
	if err := market.e.Close(); err != nil {
		return nil, err
	}
	if loadErr != nil {
		return nil, loadErr
	}
	r.setP50("load_p50_ms", ld.lat)
	ev.tr.finish(r)
	return r, nil
}

// editWrites are the writer session's measured latencies.
type editWrites struct {
	writes, pastes, structs []time.Duration
	cells                   int
}

// editWriter runs the writer session: warm rounds, then measured rounds,
// applying every acknowledged edit to the shadow model.
func editWriter(ev *env, c *client.Client, db *rdbms.DB, size editSize, sh *shadow, rows *atomic.Int64, r *result) editWrites {
	rng := rand.New(rand.NewSource(ev.seed*31 + 7))
	var w editWrites
	var endPhase func(int, int)
	requests, batch := 0, 0
	round := make([]string, len(editRound))
	for n := 0; n < size.warmRounds+size.rounds; n++ {
		measured := n >= size.warmRounds
		if n == size.warmRounds {
			endPhase = ev.tr.writePhase(db)
		}
		copy(round, editRound)
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		for _, kind := range round {
			switch kind {
			case "update", "new":
				row, col, ok := pickCell(rng, sh, kind == "new")
				if !ok {
					continue
				}
				v := float64(rng.Intn(1000))
				start := time.Now()
				_, err := c.Set("edit", row, col, strconv.Itoa(int(v)))
				d := time.Since(start)
				if r.op(err) {
					sh.setValue(row, col, v)
					if measured {
						w.writes = append(w.writes, d)
						w.cells++
						requests++
					}
				}
			case "paste":
				batch++
				top := 1 + rng.Intn(len(sh.rows)-pasteRows+1)
				edits := make([]core.CellEdit, 0, pasteRows*bandWidth)
				for row := top; row < top+pasteRows; row++ {
					for col := bandFirst; col <= bandLast; col++ {
						edits = append(edits, core.CellEdit{Row: row, Col: col, Input: strconv.Itoa(int(stamp(batch, col)))})
					}
				}
				start := time.Now()
				_, err := c.SetCells("edit", edits)
				end := time.Now()
				if r.op(err) {
					for _, ed := range edits {
						sh.setValue(ed.Row, ed.Col, stamp(batch, ed.Col))
					}
					if measured {
						w.pastes = append(w.pastes, end.Sub(start))
						w.cells += len(edits)
						requests++
						ev.tr.paste(edits, start, end)
					}
				}
			case "insert", "delete":
				insert := kind == "insert"
				count := 2
				at := 1 + rng.Intn(len(sh.rows)-2)
				if insert {
					count = 1
				}
				m0 := db.Pool().Stats().ManifestBytes
				start := time.Now()
				var err error
				if insert {
					_, err = c.InsertRows("edit", at, count)
				} else {
					_, err = c.DeleteRows("edit", at, count)
				}
				end := time.Now()
				if r.op(err) {
					if insert {
						sh.insertRows(at, count)
					} else {
						sh.deleteRows(at, count)
					}
					rows.Store(int64(len(sh.rows)))
					if measured {
						w.structs = append(w.structs, end.Sub(start))
						requests++
						ev.tr.structOp(insert, at, count, start, end, db.Pool().Stats().ManifestBytes-m0)
					}
				}
			}
		}
	}
	endPhase(requests, w.cells)
	return w
}

// pickCell chooses a filled typing cell (update) or a blank one (new).
func pickCell(rng *rand.Rand, sh *shadow, blank bool) (int, int, bool) {
	for try := 0; try < 100; try++ {
		row := 1 + rng.Intn(len(sh.rows))
		var cols []int
		for col := 1; col <= typingCols; col++ {
			if sh.filled(row, col) != blank {
				cols = append(cols, col)
			}
		}
		if len(cols) > 0 {
			return row, cols[rng.Intn(len(cols))], true
		}
	}
	return 0, 0, false
}

// editReads are the reader session's measurements.
type editReads struct {
	lat   []time.Duration
	stale int
	cells int
}

// readerThink is the edit reader's pause between screens. It spreads the
// reader's fixed number of reads over the writer's whole run instead of
// finishing them in its first seconds.
const readerThink = time.Millisecond

// editReader runs the reader session: one-screen scrolls down the edited
// region, columns A..T, wrapping at the sheet's current end. Every response
// is checked for torn paste rows; unflagged stale totals are counted.
func editReader(ev *env, c *client.Client, db *rdbms.DB, size editSize, rows *atomic.Int64, r *result) editReads {
	var rd editReads
	endReads := func(int) {}
	top := 1
	for i := 0; i < size.warmReads+size.reads; i++ {
		if i == size.warmReads {
			endReads = ev.tr.readPhase(db)
		}
		time.Sleep(readerThink)
		if n := int(rows.Load()); top+vpRows-1 > n {
			top = 1
		}
		g := sheet.NewRange(top, 1, top+vpRows-1, vpCols)
		top += vpRows
		start := time.Now()
		got, pending, _, err := c.GetRangePending("edit", g.From.Row, g.From.Col, g.To.Row, g.To.Col)
		end := time.Now()
		if !r.op(err) {
			continue
		}
		rd.cells += g.Area()
		r.check(checkTorn(g, got))
		rd.stale += staleUnflagged(g, got, pending)
		if i < size.warmReads {
			ev.tr.warm(g)
			continue
		}
		rd.lat = append(rd.lat, end.Sub(start))
		ev.tr.read(g, start, end)
	}
	endReads(len(rd.lat))
	return rd
}
