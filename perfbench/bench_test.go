package main

import (
	"os"
	"strings"
	"testing"

	"dataspread/internal/sheet"
)

// cells builds a program response from plain values: nil is blank.
func cells(rows ...[]any) [][]sheet.Cell {
	out := make([][]sheet.Cell, len(rows))
	for i, row := range rows {
		out[i] = make([]sheet.Cell, len(row))
		for j, v := range row {
			switch v := v.(type) {
			case float64:
				out[i][j] = sheet.Cell{Value: sheet.Number(v)}
			case string:
				out[i][j] = sheet.Cell{Value: sheet.Str(v)}
			}
		}
	}
	return out
}

// wants turns plain values into expectations: nil is blank.
func wants(row []any) []want {
	out := make([]want, len(row))
	for i, v := range row {
		switch v := v.(type) {
		case float64:
			out[i] = num(v)
		case string:
			out[i] = text(v)
		}
	}
	return out
}

func TestCheckCellsCatchesWrongValue(t *testing.T) {
	g := sheet.NewRange(1, 1, 1, 3)
	expect := func(row, col int) want { return wants([]any{1.0, "x", nil})[col-1] }
	if err := checkCells(g, cells([]any{1.0, "x", nil}), expect); err != nil {
		t.Fatalf("correct range rejected: %v", err)
	}
	for _, bad := range [][]any{{2.0, "x", nil}, {1.0, "y", nil}, {1.0, "x", 0.0}, {"1", "x", nil}} {
		if err := checkCells(g, cells(bad), expect); err == nil {
			t.Errorf("wrong range %v accepted", bad)
		}
	}
	if err := checkCells(g, cells([]any{1.0, "x"}), expect); err == nil {
		t.Error("short row accepted")
	}
	hex := func(row, col int) want { return hexText(0xabc) }
	g1 := sheet.NewRange(1, 1, 1, 1)
	if err := checkCells(g1, cells([]any{"000000000abc-000000000abc"}), hex); err != nil {
		t.Errorf("hex text rejected: %v", err)
	}
	for _, bad := range []any{"000000000abc", "000000000abc-000000000abd", "000000000abd-000000000abd", float64(0xabc)} {
		if err := checkCells(g1, cells([]any{bad}), hex); err == nil {
			t.Errorf("hex text %v accepted", bad)
		}
	}
}

func TestCheckTornCatchesTornRow(t *testing.T) {
	g := sheet.NewRange(1, 9, 2, 14)
	row := func(batches ...int) []any {
		out := []any{5.0, nil} // columns 9 and 10: outside the band
		for i, b := range batches {
			if b < 0 {
				out = append(out, nil)
			} else {
				out = append(out, stamp(b, bandFirst+i))
			}
		}
		return out
	}
	if err := checkTorn(g, cells(row(3, 3, 3, 3), row(-1, -1, -1, -1))); err != nil {
		t.Fatalf("whole rows rejected: %v", err)
	}
	if err := checkTorn(g, cells(row(3, 3, 4, 4), row(1, 1, 1, 1))); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("row of two pastes accepted: %v", err)
	}
	if err := checkTorn(g, cells(row(1, 1, 1, 1), row(2, -1, 2, 2))); err == nil {
		t.Error("paste beside blank accepted")
	}
}

func TestMarketCatchesOffByOneTick(t *testing.T) {
	const inter, leaves, n = 5, 4, 7
	g := sheet.NewRange(1, 1, inter+1, leaves+3)
	grid := func(tick int) [][]sheet.Cell {
		var rows [][]any
		for row := g.From.Row; row <= g.To.Row; row++ {
			var r []any
			for col := g.From.Col; col <= g.To.Col; col++ {
				if w := marketValue(tick, inter, leaves, row, col); w != blank {
					r = append(r, w.num)
				} else {
					r = append(r, nil)
				}
			}
			rows = append(rows, r)
		}
		return cells(rows...)
	}
	expect := func(row, col int) want { return marketValue(n, inter, leaves, row, col) }
	if err := checkCells(g, grid(n), expect); err != nil {
		t.Fatalf("tick %d rejected: %v", n, err)
	}
	if err := checkCells(g, grid(n-1), expect); err == nil {
		t.Error("previous tick accepted")
	}
	if v := marketValue(2, inter, leaves, 3, 5); v != num(102*3+3) {
		t.Errorf("leaf (3,5) after tick 2 = %v, want %d", v, 102*3+3)
	}
}

func TestShadowFollowsRowShiftsAndTotals(t *testing.T) {
	sh := &shadow{}
	for r := 1; r <= 4; r++ {
		sh.setValue(r, 1, float64(r))
		sh.setValue(r, 2, 10)
		sh.rows[r-1].total = true
	}
	sh.insertRows(1, 1)
	if sh.expect(2, 1) != blank || sh.expect(2, totalCol) != blank || sh.expect(3, 1) != num(2) {
		t.Fatalf("insert: row 2 = %v/%v, row 3 = %v", sh.expect(2, 1), sh.expect(2, totalCol), sh.expect(3, 1))
	}
	sh.deleteRows(3, 2)
	if len(sh.rows) != 3 || sh.expect(3, 1) != num(4) || sh.expect(3, totalCol) != num(14) {
		t.Fatalf("delete: %d rows, row 3 = %v total %v", len(sh.rows), sh.expect(3, 1), sh.expect(3, totalCol))
	}
}

func TestStaleUnflaggedCountsOnlyUnflaggedMismatches(t *testing.T) {
	g := sheet.NewRange(1, 1, 3, totalCol)
	row := func(a, total any) []any {
		return []any{a, 1.0, nil, nil, nil, nil, nil, nil, total}
	}
	got := cells(row(2.0, 3.0), row(5.0, 3.0), row(5.0, 3.0))
	pending := [][]bool{make([]bool, totalCol), make([]bool, totalCol), make([]bool, totalCol)}
	pending[2][totalCol-1] = true
	if n := staleUnflagged(g, got, pending); n != 1 {
		t.Errorf("stale unflagged = %d, want 1", n)
	}
}

// The smoke runs drive each workload end to end at a small size, untraced
// and traced, and expect every check to pass and every metric to be set.
func TestSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			ev := newEnv(t.TempDir(), 5, trace)
			res, err := run(ev, 1, true)
			ev.close()
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if len(res.problems) > 0 || res.failed > 0 {
				t.Fatalf("%s trace=%v: problems %v, %d failed: %v", name, trace, res.problems, res.failed, res.errs)
			}
			if err := res.emit(os.Stdout, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
		}
	}
}
