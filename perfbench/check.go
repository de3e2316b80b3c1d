package main

import (
	"fmt"
	"strconv"

	"dataspread/internal/sheet"
)

// The checkers compare the program's output with values the benchmark
// computes itself, never with values read back from the program.

// want is a cell's expected content: blank, a number, a text, or a text
// that spells a 48-bit number twice as 12 hex digits ("0123456789ab-
// 0123456789ab"). It is a plain value so checking a viewport allocates
// nothing.
type want struct {
	kind byte // 0 blank, 'n' number, 's' text, 'h' hex text of num
	num  float64
	str  string
}

var blank = want{}

func num(f float64) want    { return want{kind: 'n', num: f} }
func text(s string) want    { return want{kind: 's', str: s} }
func hexText(h uint64) want { return want{kind: 'h', num: float64(h)} }

// String is the expected text of a text cell, the number or "blank"
// otherwise.
func (w want) String() string {
	switch w.kind {
	case 'n':
		return strconv.FormatFloat(w.num, 'g', -1, 64)
	case 's':
		return w.str
	case 'h':
		return fmt.Sprintf("%012x-%012x", uint64(w.num), uint64(w.num))
	}
	return "blank"
}

// matches reports whether a cell holds the expected plain value.
func matches(c sheet.Cell, w want) bool {
	v := c.Value
	switch w.kind {
	case 0:
		return v.IsEmpty()
	case 'n':
		f, ok := v.Num()
		return ok && v.Kind() == sheet.KindNumber && f == w.num
	case 's':
		return v.Kind() == sheet.KindString && v.Text() == w.str
	case 'h':
		t := v.Text()
		if v.Kind() != sheet.KindString || len(t) != 25 || t[12] != '-' || t[:12] != t[13:] {
			return false
		}
		h, err := strconv.ParseUint(t[:12], 16, 64)
		return err == nil && float64(h) == w.num
	}
	return false
}

// checkCells compares a range the program returned with want, cell by
// cell.
func checkCells(g sheet.Range, got [][]sheet.Cell, expect func(row, col int) want) error {
	if len(got) != g.Rows() {
		return fmt.Errorf("%v: %d rows returned, want %d", g, len(got), g.Rows())
	}
	for i, row := range got {
		if len(row) != g.Cols() {
			return fmt.Errorf("%v: row %d has %d cells, want %d", g, g.From.Row+i, len(row), g.Cols())
		}
		for j, c := range row {
			r, col := g.From.Row+i, g.From.Col+j
			if w := expect(r, col); !matches(c, w) {
				return fmt.Errorf("cell (%d,%d): got %q, want %q", r, col, c.Value.Text(), w)
			}
		}
	}
	return nil
}

// The edit workload's paste band: each paste writes whole rows of the band,
// stamping every cell with its batch number, so one row of the band never
// holds two stamps or a stamp beside a blank.
const (
	bandFirst, bandLast = 11, 26
	stampScale          = 1000
)

// stamp is the value a paste of batch writes into a band column.
func stamp(batch, col int) float64 { return float64(batch*stampScale + col - bandFirst) }

// checkTorn reports a row of the band, as far as g shows it, holding cells
// of two different pastes (or a paste beside a blank).
func checkTorn(g sheet.Range, got [][]sheet.Cell) error {
	lo, hi := max(g.From.Col, bandFirst), min(g.To.Col, bandLast)
	for i, row := range got {
		batch, gap := -1, false
		for col := lo; col <= hi; col++ {
			c := row[col-g.From.Col]
			if c.Value.IsEmpty() {
				gap = true
				continue
			}
			f, ok := c.Value.Num()
			if !ok {
				return fmt.Errorf("band cell (%d,%d) holds %q", g.From.Row+i, col, c.Value.Text())
			}
			b := int(f) / stampScale
			if batch >= 0 && b != batch {
				return fmt.Errorf("torn read: band row %d shows pastes %d and %d", g.From.Row+i, batch, b)
			}
			batch = b
		}
		if gap && batch >= 0 {
			return fmt.Errorf("torn read: band row %d shows paste %d beside blanks", g.From.Row+i, batch)
		}
	}
	return nil
}

// The edit workload's typing table: columns A..H hold numbers, column I
// the row total =SUM(A r:H r).
const (
	typingCols = 8
	totalCol   = 9
)

// staleUnflagged counts row totals in one get-range response that are
// not flagged pending yet differ from the sum of the same response's
// typing cells. Rows without a total (blank) are skipped. The response
// must cover columns 1..totalCol.
func staleUnflagged(g sheet.Range, got [][]sheet.Cell, pending [][]bool) int {
	if g.From.Col != 1 || g.To.Col < totalCol {
		return 0
	}
	n := 0
	for i, row := range got {
		tot := row[totalCol-1]
		if tot.Value.IsEmpty() || (pending != nil && pending[i][totalCol-1]) {
			continue
		}
		sum := 0.0
		for _, c := range row[:typingCols] {
			if f, ok := c.Value.Num(); ok {
				sum += f
			}
		}
		if f, ok := tot.Value.Num(); !ok || f != sum {
			n++
		}
	}
	return n
}

// marketValue is the closed form of a ticker market after tick n: A1
// holds 100+n, B<i> = A1*i and the j-th leaf of row i = B<i>+j, so every
// cell of the cone is (100+n)*i + j (j = 0 for the intermediate). Cells
// outside the market are blank.
func marketValue(n, inter, leaves, row, col int) want {
	p := 100 + n
	switch {
	case row == 1 && col == 1:
		return num(float64(p))
	case row < 1 || row > inter || col < 2 || col > 2+leaves:
		return blank
	default:
		return num(float64(p*row + col - 2))
	}
}

// shadow is the edit workload's own model of its sheet: a plain slice of
// rows, updated with every acknowledged edit and row shift.
type shadow struct {
	rows []shadowRow
}

type shadowRow struct {
	vals  [bandLast]float64
	set   [bandLast]bool
	total bool // the row holds a row-total formula
}

func (s *shadow) grow(row int) {
	for len(s.rows) < row {
		s.rows = append(s.rows, shadowRow{})
	}
}

func (s *shadow) setValue(row, col int, v float64) {
	s.grow(row)
	s.rows[row-1].vals[col-1] = v
	s.rows[row-1].set[col-1] = true
}

func (s *shadow) filled(row, col int) bool {
	return row <= len(s.rows) && s.rows[row-1].set[col-1]
}

// insertRows mirrors inserting count blank rows after row.
func (s *shadow) insertRows(after, count int) {
	if after >= len(s.rows) {
		return
	}
	fresh := make([]shadowRow, count)
	s.rows = append(s.rows[:after], append(fresh, s.rows[after:]...)...)
}

// deleteRows mirrors deleting count rows starting at row.
func (s *shadow) deleteRows(row, count int) {
	if row > len(s.rows) {
		return
	}
	end := min(row-1+count, len(s.rows))
	s.rows = append(s.rows[:row-1], s.rows[end:]...)
}

// expect is the expected content of a cell; a row total is recomputed from
// the model's typing values.
func (s *shadow) expect(row, col int) want {
	if row < 1 || row > len(s.rows) || col < 1 || col > bandLast {
		return blank
	}
	r := &s.rows[row-1]
	if col == totalCol && r.total {
		sum := 0.0
		for c := 0; c < typingCols; c++ {
			if r.set[c] {
				sum += r.vals[c]
			}
		}
		return num(sum)
	}
	if !r.set[col-1] {
		return blank
	}
	return num(r.vals[col-1])
}

// cells counts the model's non-blank cells.
func (s *shadow) cells() int {
	n := 0
	for i := range s.rows {
		for col := 1; col <= bandLast; col++ {
			if s.expect(i+1, col) != blank {
				n++
			}
		}
	}
	return n
}
