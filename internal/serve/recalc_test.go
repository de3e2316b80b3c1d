package serve

import (
	"fmt"
	"testing"
	"time"

	"dataspread/internal/core"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// waitConverged polls GetRangePending until the staleness mask is empty,
// returning the final cells; it fails the test after the deadline.
func waitConverged(t *testing.T, c *Client, name string, r1, c1, r2, c2 int) [][]sheet.Cell {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cells, pending, _, err := c.GetRangePending(name, r1, c1, r2, c2)
		if err != nil {
			t.Fatalf("get range: %v", err)
		}
		if pending == nil {
			return cells
		}
		if time.Now().After(deadline) {
			t.Fatalf("range (%d,%d)-(%d,%d) still pending after deadline", r1, c1, r2, c2)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeAsyncViewportPending drives the LazyBrowsing serving path end
// to end: edits against an async server return before the affected cone
// converges, get-range responses carry staleness flags for the cells still
// queued, a registered viewport steers the scheduler, and the stats
// response exposes the per-sheet pending count.
func TestServeAsyncViewportPending(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	s, addr := startServer(t, db, core.Options{AsyncRecalc: true})
	c := dialT(t, addr)
	if err := c.Open("s"); err != nil {
		t.Fatalf("open: %v", err)
	}

	// A1 fans out to a column of dependents.
	edits := []core.CellEdit{{Row: 1, Col: 1, Input: "2"}}
	for i := 1; i <= 200; i++ {
		edits = append(edits, core.CellEdit{Row: i, Col: 2, Input: fmt.Sprintf("=A1*%d", i)})
	}
	if _, err := c.SetCells("s", edits); err != nil {
		t.Fatalf("set cells: %v", err)
	}

	// The session's viewport: the top of column B.
	if err := c.RegisterViewport("s", 1, 2, 5, 2); err != nil {
		t.Fatalf("register viewport: %v", err)
	}
	cells := waitConverged(t, c, "s", 1, 2, 5, 2)
	for i, row := range cells {
		want := float64(2 * (i + 1))
		if got, _ := row[0].Value.Num(); got != want {
			t.Fatalf("B%d = %v, want %v", i+1, row[0].Value, want)
		}
	}

	// Re-edit the root; the whole sheet must converge (not only the
	// viewport), and the stats pending gauge must reach zero.
	if _, err := c.Set("s", 1, 1, "3"); err != nil {
		t.Fatalf("set: %v", err)
	}
	cells = waitConverged(t, c, "s", 1, 2, 200, 2)
	for i, row := range cells {
		want := float64(3 * (i + 1))
		if got, _ := row[0].Value.Num(); got != want {
			t.Fatalf("B%d after re-edit = %v, want %v", i+1, row[0].Value, want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(st.Sheets) != 1 || st.Sheets[0].Pending != 0 {
		t.Fatalf("sheet stats = %+v, want one converged sheet", st.Sheets)
	}

	// Moving and clearing the viewport round-trips; convergence does not
	// depend on having one.
	if err := c.RegisterViewport("s", 100, 2, 120, 2); err != nil {
		t.Fatalf("move viewport: %v", err)
	}
	if err := c.ClearViewport("s"); err != nil {
		t.Fatalf("clear viewport: %v", err)
	}
	if _, err := c.Set("s", 1, 1, "4"); err != nil {
		t.Fatalf("set: %v", err)
	}
	cells = waitConverged(t, c, "s", 7, 2, 7, 2)
	if got, _ := cells[0][0].Value.Num(); got != 28 {
		t.Fatalf("B7 = %v, want 28", cells[0][0].Value)
	}

	// A structural edit drains the scheduler before quiescing the sheet:
	// the shifted formula keeps tracking its source.
	if _, err := c.InsertRows("s", 0, 1); err != nil {
		t.Fatalf("insert rows: %v", err)
	}
	cells = waitConverged(t, c, "s", 2, 2, 2, 2)
	if got, _ := cells[0][0].Value.Num(); got != 4 {
		t.Fatalf("shifted B2 = %v, want 4", cells[0][0].Value)
	}

	// Dropping the connection unregisters its viewports server-side.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		h := s.sheets["s"]
		s.mu.Unlock()
		if h != nil && h.eng.PendingCount() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sheet did not settle after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeViewportSyncNoop: against a synchronous server the viewport ops
// succeed as no-ops and reads never carry staleness flags.
func TestServeViewportSyncNoop(t *testing.T) {
	db := rdbms.Open(rdbms.Options{})
	_, addr := startServer(t, db, core.Options{})
	c := dialT(t, addr)
	if err := c.Open("s"); err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := c.RegisterViewport("s", 1, 1, 10, 10); err != nil {
		t.Fatalf("register viewport on sync server: %v", err)
	}
	if _, err := c.SetCells("s", []core.CellEdit{
		{Row: 1, Col: 1, Input: "5"},
		{Row: 1, Col: 2, Input: "=A1*2"},
	}); err != nil {
		t.Fatalf("set cells: %v", err)
	}
	cells, pending, _, err := c.GetRangePending("s", 1, 1, 1, 2)
	if err != nil {
		t.Fatalf("get range: %v", err)
	}
	if pending != nil {
		t.Fatalf("sync server flagged pending cells: %v", pending)
	}
	if got, _ := cells[0][1].Value.Num(); got != 10 {
		t.Fatalf("B1 = %v, want 10", cells[0][1].Value)
	}
	if err := c.ClearViewport("s"); err != nil {
		t.Fatalf("clear viewport: %v", err)
	}
}

// A get-range must never serve a stale value with its pending flag clear.
// The test forces the worst interleaving: a recalc chunk commits between
// the read's staleness sample and its cell read. A read latch held over
// the column queues the dispatcher's commit, so the read takes the
// snapshot path; the test hook then releases the latch and waits for the
// column to converge before the cells are read. Sampling the mask first,
// the read returns converged values flagged pending (an over-flag). With
// the cells read first, it would return the old values with a clear mask.
func TestServePendingSampledBeforeCells(t *testing.T) {
	eng, err := core.New(rdbms.Open(rdbms.Options{}), "s", core.Options{AsyncRecalc: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 100
	edits := []core.CellEdit{{Row: 1, Col: 1, Input: "1"}}
	for i := 1; i <= n; i++ {
		edits = append(edits, core.CellEdit{Row: i, Col: 2, Input: fmt.Sprintf("=A1*%d", i)})
	}
	if err := eng.SetCells(edits); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	h := newSheetHandle("s", eng)
	g := sheet.NewRange(1, 2, n, 2)
	// Make the column's blocks resident, so the snapshot path can serve it.
	if _, err := h.getRange(g); err != nil {
		t.Fatal(err)
	}

	release := eng.RLatchRange(g)
	if err := eng.Set(1, 1, "2"); err != nil {
		t.Fatal(err)
	}
	// Wait until the dispatcher's commit is queued on the write latch.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, ok := eng.TryRLatchRange(g)
		if !ok {
			break
		}
		r()
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never queued its commit")
		}
		time.Sleep(time.Millisecond)
	}
	hooked := false
	h.afterPendingSample = func() {
		hooked = true
		release()
		if err := eng.WaitRange(g); err != nil {
			t.Error(err)
		}
	}
	rr, err := h.getRange(g)
	if err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("the read never reached the hook")
	}
	stale := 0
	for i := 0; i < n; i++ {
		got, _ := rr.cells[i][0].Value.Num()
		flagged := rr.pending != nil && rr.pending[i][0]
		if got != float64(2*(i+1)) && !flagged {
			stale++
		}
	}
	if stale != 0 {
		t.Fatalf("%d of %d cells served stale with a clear pending flag", stale, n)
	}
}
