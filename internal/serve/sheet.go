package serve

import (
	"fmt"
	"sync"

	"dataspread/internal/cache"
	"dataspread/internal/core"
	"dataspread/internal/sheet"
)

// sheetHandle wraps one open engine for concurrent serving.
//
// Reads are generation-stamped snapshots that never wait on a bulk load.
// get-range tries three paths, cheapest first:
//
//  1. Fast path: try-acquire the engine's read latches. When no writer is
//     active this succeeds and the read is an ordinary latched engine read
//     (cache + storage), stamped with the live generation.
//  2. Snapshot path: a writer holds (or waits for) a latch we need. Under
//     h.mu the handle pins the last *committed* generation and assembles
//     the range from the writer's pre-image overlay plus resident cache
//     blocks — never touching storage, so the in-flight writer is
//     invisible. Falls through when a needed block is neither overlaid nor
//     resident.
//  3. Blocking path: a plain latched snapshot read; waits for the writer.
//
// Writers serialize per sheet on wmu and follow the protocol in setCells:
// pre-image every block their batch can dirty (the edits plus the
// dependency graph's affected set), publish the overlay, apply under
// write latches, then commit — generation bump and overlay retirement
// under h.mu — before unlatching, and fsync only after unlatching, so
// readers never wait on disk. Structural edits quiesce the sheet instead
// (exclusive latch + the exclusive flag to park snapshot readers on the
// blocking path, since row shifts move cache blocks wholesale).
type sheetHandle struct {
	name string
	eng  *core.Engine
	// wmu serializes writers (cell batches and structural edits).
	wmu sync.Mutex
	// mu guards gen, overlay, and exclusive — the read-visibility state.
	mu sync.RWMutex
	// gen is the last committed generation: what snapshot readers serve.
	gen uint64
	// overlay holds pre-images of the blocks the in-flight writer dirties,
	// keyed by cache tile; nil when no writer is mid-batch.
	overlay map[cache.BlockKey][][]sheet.Cell
	// exclusive marks an in-flight structural edit: snapshot reads are
	// invalid while cache blocks shift, so readers take the blocking path.
	exclusive bool
	// afterPendingSample, when set, runs between a read's staleness sample
	// and its cell read: a test hook that lets a recalc commit land in
	// that gap. Nil in production.
	afterPendingSample func()
}

func newSheetHandle(name string, eng *core.Engine) *sheetHandle {
	return &sheetHandle{name: name, eng: eng, gen: eng.Generation()}
}

// generation returns the committed snapshot generation.
func (h *sheetHandle) generation() uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.gen
}

// rangeRead is one get-range result: the cells, the generation they were
// stamped with, and their staleness mask (nil when none is pending).
type rangeRead struct {
	cells   [][]sheet.Cell
	gen     uint64
	pending [][]bool
}

// getRange materializes g with its snapshot generation and staleness mask.
//
// Each path samples the mask after the stamp and before the cells, inside
// the critical section that makes the read consistent (the read latches,
// or h.mu on the snapshot path). A recalc commit writes a cell's value
// before it clears the cell's pending bit, so a bit sampled clear means
// the value read afterwards is the converged one. A cell can at worst be
// flagged pending when it converged in between, never served stale and
// unflagged.
func (h *sheetHandle) getRange(g sheet.Range) (rangeRead, error) {
	// Fast path: no writer in the way.
	if release, ok := h.eng.TryRLatchRange(g); ok {
		defer release()
		return h.latchedRead(g)
	}
	// Snapshot path: serve the pinned committed generation from overlay +
	// resident blocks, fully under h.mu so the writer's commit (which
	// retires the overlay) cannot interleave with the assembly.
	if rr, ok := h.peekSnapshot(g); ok {
		return rr, nil
	}
	// Blocking path: wait for the writer.
	release := h.eng.RLatchRange(g)
	defer release()
	return h.latchedRead(g)
}

// latchedRead reads g under its read latches, which exclude every writer
// of the tables g covers: the stamp and the mask describe the same state
// as the cells.
func (h *sheetHandle) latchedRead(g sheet.Range) (rangeRead, error) {
	rr := rangeRead{gen: h.eng.Generation(), pending: h.eng.PendingMask(g)}
	if h.afterPendingSample != nil {
		h.afterPendingSample()
	}
	rr.cells = h.eng.GetCells(g)
	return rr, h.eng.ReadErr()
}

func (h *sheetHandle) peekSnapshot(g sheet.Range) (rangeRead, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if h.exclusive {
		return rangeRead{}, false
	}
	rr := rangeRead{gen: h.gen, pending: h.eng.PendingMask(g)}
	if h.afterPendingSample != nil {
		h.afterPendingSample()
	}
	rows, cols := g.Rows(), g.Cols()
	flat := make([]sheet.Cell, rows*cols)
	out := make([][]sheet.Cell, rows)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	for _, k := range cache.BlockCover(g) {
		bg := k.Range()
		ov, ok := g.Intersect(bg)
		if !ok {
			continue
		}
		if pre, ok := h.overlay[k]; ok {
			// Pre-imaged by the in-flight writer: copy from the snapshot.
			for row := ov.From.Row; row <= ov.To.Row; row++ {
				src := pre[row-bg.From.Row]
				copy(out[row-g.From.Row][ov.From.Col-g.From.Col:],
					src[ov.From.Col-bg.From.Col:ov.To.Col-bg.From.Col+1])
			}
			continue
		}
		// Not dirtied by the writer: the live cache block IS the snapshot.
		sub, ok := h.eng.PeekCells(ov)
		if !ok {
			return rangeRead{}, false // cold block: storage read needed
		}
		for i, row := range sub {
			copy(out[ov.From.Row-g.From.Row+i][ov.From.Col-g.From.Col:], row)
		}
	}
	rr.cells = out
	return rr, true
}

// setCells applies one batch with snapshot-preserving pre-imaging.
func (h *sheetHandle) setCells(edits []core.CellEdit) (uint64, error) {
	if len(edits) == 0 {
		return h.generation(), nil
	}
	h.wmu.Lock()
	defer h.wmu.Unlock()
	// The dirty set: edited cells plus everything the dependency graph
	// will recompute. Computed before any mutation, so the pre-images are
	// committed state.
	refs := make([]sheet.Ref, len(edits))
	for i, ed := range edits {
		if ed.Row < 1 || ed.Col < 1 {
			return h.generation(), fmt.Errorf("serve: cell (%d,%d) out of range", ed.Row, ed.Col)
		}
		refs[i] = sheet.Ref{Row: ed.Row, Col: ed.Col}
	}
	// Async recalc: the apply only writes the edited cells themselves —
	// dependents are marked pending and re-evaluated in the background, so
	// pre-imaging (and latching) the whole affected cone would serialize
	// the edit behind exactly the work the scheduler exists to take off the
	// request path. The dirty set is just the edits.
	affected := refs
	if !h.eng.AsyncRecalc() {
		affected = h.eng.AffectedRefs(refs)
	}
	overlay := make(map[cache.BlockKey][][]sheet.Cell)
	for _, r := range affected {
		k := cache.BlockKeyFor(r)
		if _, ok := overlay[k]; ok {
			continue
		}
		// A latched read of the whole tile: committed content, and the
		// tile becomes cache-resident for the snapshot path's neighbors.
		bg := k.Range()
		release := h.eng.RLatchRange(bg)
		pre := h.eng.GetCells(bg)
		err := h.eng.ReadErr()
		release()
		if err != nil {
			return h.generation(), err
		}
		overlay[k] = pre
	}
	// Publish the overlay before the first mutation: from here on snapshot
	// readers see the pre-images (identical to live state until the apply
	// below starts changing it).
	h.mu.Lock()
	h.overlay = overlay
	h.mu.Unlock()
	// Apply under write latches on every table owning a dirty cell;
	// readers of untouched tables proceed in parallel on the fast path.
	release := h.eng.WLatchRefs(affected)
	applyErr := h.eng.ApplyCells(edits)
	// Commit visibility before unlatching: bump the served generation and
	// retire the overlay in one critical section, so no reader can see the
	// new cells under the old stamp or vice versa.
	h.mu.Lock()
	h.gen = h.eng.Generation()
	h.overlay = nil
	gen := h.gen
	h.mu.Unlock()
	release()
	if applyErr != nil {
		return gen, applyErr
	}
	// Durability outside the latches: snapshot and fast-path readers never
	// wait on the WAL fsync (writers on this sheet do, via wmu).
	return gen, h.eng.Save()
}

// structural runs one structural edit (op already bound to the engine)
// under full quiescence.
func (h *sheetHandle) structural(op func() error) (uint64, error) {
	h.wmu.Lock()
	defer h.wmu.Unlock()
	// Drain the recalc scheduler before quiescing: the engine's structural
	// path waits for pending-free state, but the scheduler's commit chunks
	// need the table latches the exclusive latch below holds — draining
	// under the latch would deadlock. wmu is held, so no new writer can
	// re-mark cells pending between the drain and the latch.
	if err := h.eng.Drain(); err != nil {
		return h.generation(), err
	}
	// Park snapshot readers first: while blocks shift, resident cache
	// content and the committed generation disagree.
	h.mu.Lock()
	h.exclusive = true
	h.mu.Unlock()
	release := h.eng.LatchExclusive()
	err := op()
	h.mu.Lock()
	h.exclusive = false
	h.gen = h.eng.Generation()
	gen := h.gen
	h.mu.Unlock()
	release()
	return gen, err
}
