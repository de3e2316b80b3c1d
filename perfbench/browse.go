package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// browse: a values-only multi-table sheet, imported with the hybrid
// optimizer and saved, read by one TCP session in 50x20 viewports. Its
// bounding area is over 3x the cell cache and its heap over 2x the buffer
// pool, so reads cross serve -> cache -> model/posmap -> rdbms pages with a
// working set larger than the caches. There are no writes and no formulas
// in the measured phase, so recalc and write-path changes must leave its
// read metrics unchanged.

type browseSize struct {
	rows, cols     int // bounding area
	bands, perBand int // tables: bands of rows, tables side by side in each
	tRows, tCols   int // one table
	setups         int
	warm, reads    int
	loads          int
	// probe rounds, each of writes one-cell writes, one paste, pairs
	// insert/delete pairs and ticks probe ticks. Each paste into the
	// browse sheet reads more heap pages than the last, so the median
	// paste is taken past the first pastes (warm rounds) over an odd count.
	probeWarm, probeRounds int
	writes, pairs, ticks   int
}

func browseSizes(seconds int, smoke bool) browseSize {
	if smoke {
		return browseSize{rows: 640, cols: 80, bands: 2, perBand: 2, tRows: 260, tCols: 20,
			setups: 2, warm: 10, reads: 40, loads: 2, probeWarm: 1, probeRounds: 1, writes: 2, pairs: 1, ticks: 2}
	}
	return browseSize{rows: 20480, cols: 320, bands: 4, perBand: 2, tRows: 4096, tCols: 32,
		setups: 3, warm: 2000, reads: 2000 * seconds, loads: 40, probeWarm: 3, probeRounds: 15, writes: 14, pairs: 4, ticks: 20}
}

// viewport rows and columns of a browse read
const vpRows, vpCols = 50, 20

// browseSheet is the generated input: tables at fixed, staggered places,
// cell values a hash of seed and position, so any cell's expected value is
// computed without keeping the sheet. The layout does not depend on the
// seed, so neither do the sheet's size and storage layout.
type browseSheet struct {
	seed   int64
	size   browseSize
	tables []sheet.Range
}

func newBrowseSheet(seed int64, size browseSize) *browseSheet {
	b := &browseSheet{seed: seed, size: size}
	bandH, slotW := size.rows/size.bands, size.cols/size.perBand
	for band := 0; band < size.bands; band++ {
		for k := 0; k < size.perBand; k++ {
			top := band*bandH + 1 + (bandH-size.tRows)*k/size.perBand
			left := k*slotW + 1 + (slotW-size.tCols)*band/size.bands
			b.tables = append(b.tables, sheet.NewRange(top, left, top+size.tRows-1, left+size.tCols-1))
		}
	}
	return b
}

// at is the expected content of a cell: a header row of labels, then
// alternating number and 25-character text columns, and one note in the
// bottom-right corner that fixes the bounding area.
func (b *browseSheet) at(row, col int) want {
	if row == b.size.rows && col == b.size.cols {
		return text("end of sheet")
	}
	for t, g := range b.tables {
		if !g.Contains(sheet.Ref{Row: row, Col: col}) {
			continue
		}
		if row == g.From.Row {
			return text(fmt.Sprintf("t%d.col%d", t, col-g.From.Col))
		}
		h := mix(uint64(b.seed), uint64(row)<<20|uint64(col))
		if (col-g.From.Col)%2 == 1 {
			return hexText(h & 0xffffffffffff)
		}
		return num(float64(h % 1_000_000))
	}
	return blank
}

// cells counts the sheet's non-blank cells.
func (b *browseSheet) cells() int { return len(b.tables)*b.size.tRows*b.size.tCols + 1 }

// build generates the sheet.
func (b *browseSheet) build() *sheet.Sheet {
	s := sheet.New("browse")
	put := func(row, col int) {
		switch w := b.at(row, col); w.kind {
		case 'n':
			s.SetValue(row, col, sheet.Number(w.num))
		case 's':
			s.SetValue(row, col, sheet.Str(w.str))
		case 'h':
			s.SetValue(row, col, sheet.Str(w.String()))
		}
	}
	for _, g := range b.tables {
		for row := g.From.Row; row <= g.To.Row; row++ {
			for col := g.From.Col; col <= g.To.Col; col++ {
				put(row, col)
			}
		}
	}
	put(b.size.rows, b.size.cols)
	return s
}

// mix is the splitmix64 finalizer over seed and key.
func mix(seed, key uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scroller walks viewports: mostly one-screen scrolls down or right, one
// read in ten a uniform random jump.
type scroller struct {
	rng        *rand.Rand
	rows, cols int // area the viewports stay inside
	r, c       int
}

func newScroller(seed int64, rows, cols int) *scroller {
	s := &scroller{rng: rand.New(rand.NewSource(seed)), rows: rows, cols: cols}
	s.jump()
	return s
}

func (s *scroller) jump() {
	s.r = 1 + s.rng.Intn(s.rows-vpRows+1)
	s.c = 1 + s.rng.Intn(s.cols-vpCols+1)
}

func (s *scroller) next() sheet.Range {
	p := s.rng.Float64()
	switch {
	case p < 0.1:
		s.jump()
	case p < 0.2:
		if s.c += vpCols; s.c+vpCols-1 > s.cols {
			s.jump()
		}
	default:
		if s.r += vpRows; s.r+vpRows-1 > s.rows {
			s.jump()
		}
	}
	return sheet.NewRange(s.r, s.c, s.r+vpRows-1, s.c+vpCols-1)
}

func runBrowse(ev *env, seconds int, smoke bool) (*result, error) {
	size := browseSizes(seconds, smoke)
	r := newResult()
	bs := newBrowseSheet(ev.seed, size)
	var input *sheet.Sheet
	db, twinDB, err := ev.setups(size.setups, r, func(db *rdbms.DB) error {
		input = bs.build()
		e, err := core.Open(db, "browse", input, "agg", engineOpts)
		if err != nil {
			return err
		}
		err = e.Drain()
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
	input = nil
	if err := dbBytesPerCell(db, bs.cells(), r); err != nil {
		return nil, err
	}
	if twinDB != nil {
		if err := ev.tr.attach(twinDB, "browse", size.rows, bs.cells()); err != nil {
			return nil, err
		}
	}

	srv, err := startServer(db)
	if err != nil {
		return nil, err
	}
	c, err := srv.dial("browse")
	if err != nil {
		srv.stop()
		return nil, err
	}
	sc := newScroller(ev.seed, size.rows, size.cols)
	cells := 0
	read := func(g sheet.Range) (time.Time, time.Time, bool) {
		start := time.Now()
		got, _, err := c.GetRange("browse", g.From.Row, g.From.Col, g.To.Row, g.To.Col)
		end := time.Now()
		if !r.op(err) {
			return start, end, false
		}
		cells += g.Area()
		r.check(checkCells(g, got, bs.at))
		return start, end, true
	}
	for i := 0; i < size.warm; i++ {
		g := sc.next()
		read(g)
		ev.tr.warm(g)
	}
	runtime.GC()
	endReads := ev.tr.readPhase(db)
	var lat []time.Duration
	for i := 0; i < size.reads; i++ {
		g := sc.next()
		if start, end, ok := read(g); ok {
			lat = append(lat, end.Sub(start))
			ev.tr.read(g, start, end)
		}
	}
	endReads(len(lat))
	r.setP50("read_p50_ms", lat)
	if err := r.setP99("read_p99_ms", lat, smoke); err != nil {
		return nil, err
	}
	heapMB(r)

	market, err := newProbeMarket(ev, db, smoke)
	if err != nil {
		return nil, err
	}
	w := newTCPWriter(ev, c, db, "browse", bs.tables[0], size.writes, size.pairs, bs.at)
	probePhase(size.probeWarm, size.probeRounds, w.step(r), market.step(size.ticks, r))
	after := w.finish(r)
	market.finish(r)
	if err := market.e.Close(); err != nil {
		return nil, err
	}
	cells += w.moved
	c.Close()
	wire := srv.ln.bytes.Load()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	r.set("serve.wire_bytes_per_cell", float64(wire)/float64(cells))
	r.set("serve.stale_unflagged_cells", 0)

	lc := newScroller(ev.seed+1, size.rows, size.cols)
	ld := &loader{db: db, name: "browse", check: func(e *core.Engine) error {
		for i := 0; i < 5; i++ {
			g := lc.next()
			if err := checkCells(g, e.GetCells(g), after); err != nil {
				return fmt.Errorf("after reopen: %w", err)
			}
		}
		return e.ReadErr()
	}}
	if err := ld.loads(size.loads, r); err != nil {
		return nil, err
	}
	ev.tr.finish(r)
	return r, nil
}
