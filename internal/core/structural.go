package core

import (
	"fmt"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/sheet"
)

// Structural edits — the paper's headline scenario (Section III, Fig. 23).
// The storage layer already makes the shift itself O(log n) per region via
// the positional maps; this file makes the engine layer scale with the
// *affected region* rather than the sheet:
//
//   - one count-aware shift per region (InsertRowsAfter(row, 100) is one
//     positional pass and one WAL commit, not 100),
//   - a shift-aware formula pass: formulas whose cell and reads all lie
//     strictly before the edit are never looked at — no reparse, no tuple
//     rewrite; the dependency graph relocates moved registrations in place
//     (depgraph.Shift) and only formulas whose references cross the edit
//     get their expressions rewritten and re-persisted,
//   - incremental recalculation: only formulas whose read ranges straddle
//     or absorb the edited band re-evaluate (inserted blanks and deleted
//     values change range aggregates; purely-shifted references do not),
//     plus their transitive dependents — never RecalcAll,
//   - targeted cache maintenance: cache.ShiftRows/ShiftCols keeps blocks
//     strictly above/left of the edit resident and renumbers aligned
//     blocks, instead of invalidating the whole read cache.

// EditStats describes the work done by the most recent structural edit
// (test hook and dsshell's interactive readout).
type EditStats struct {
	// Relocated counts formulas whose cell moved with the edit. Relocation
	// is in-memory re-keying only — the stored tuple moved with its
	// region's positional map.
	Relocated int
	// Rewritten counts formulas whose reference text crossed the edit and
	// was rewritten (one AST rewrite + one storage write each). Formulas
	// entirely before the edit are never rewritten.
	Rewritten int
	// Dropped counts formulas destroyed because their cell was deleted.
	Dropped int
	// Recomputed counts formula evaluations triggered by the edit: only
	// formulas whose read ranges straddle/absorb the edited band, plus
	// their transitive dependents.
	Recomputed int
}

// LastEditStats returns the counters of the most recent structural edit.
func (e *Engine) LastEditStats() EditStats { return e.lastEdit }

// InsertRowAfter inserts one spreadsheet row after `row` (Section III:
// insertRowAfter).
func (e *Engine) InsertRowAfter(row int) error { return e.InsertRowsAfter(row, 1) }

// InsertRowsAfter inserts count rows after `row` as one batched structural
// edit: a single count-aware positional shift per stored region, one
// shift-aware formula pass, recalculation limited to formulas reading
// across the edit, and one WAL commit.
func (e *Engine) InsertRowsAfter(row, count int) error {
	if count < 1 {
		return fmt.Errorf("core: insert of %d rows", count)
	}
	if row < 0 {
		return fmt.Errorf("core: insert after row %d", row)
	}
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWritesDrained()
	defer unlock()
	e.lastEdit = EditStats{}
	if err := e.store.InsertRowsAfter(row, count); err != nil {
		return err
	}
	at := row + 1
	// The extent grows only when the insert displaces content: blank rows
	// appended past the last filled row do not move anything (mirrors the
	// delete-side clamp).
	if row < e.maxRow {
		e.maxRow += count
	}
	e.cache.ShiftRows(at, count)
	if err := e.applyShift(formula.InsertRows(at, count), depgraph.Rows, at, count); err != nil {
		return err
	}
	// Only formulas whose (post-shift) ranges absorb the inserted blank
	// band can change value; purely-shifted references read the same cells.
	band := sheet.NewRange(at, 1, at+count-1, maxCoord)
	if err := e.recalcSeeds(e.deps.DirectDependents(band)); err != nil {
		return err
	}
	e.bumpGeneration()
	return e.saveLocked()
}

// DeleteRow removes one spreadsheet row.
func (e *Engine) DeleteRow(row int) error { return e.DeleteRows(row, 1) }

// DeleteRows removes the count rows [row, row+count-1] as one batched
// structural edit, mirroring InsertRowsAfter.
func (e *Engine) DeleteRows(row, count int) error {
	if count < 1 {
		return fmt.Errorf("core: delete of %d rows", count)
	}
	if row < 1 {
		return fmt.Errorf("core: delete of row %d", row)
	}
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWritesDrained()
	defer unlock()
	e.lastEdit = EditStats{}
	// Formulas reading the doomed band recompute after the shift (their
	// aggregates lose values; single references become #REF!). Collected
	// pre-shift, mapped through the edit below.
	band := sheet.NewRange(row, 1, row+count-1, maxCoord)
	seeds := e.deps.DirectDependents(band)
	if err := e.store.DeleteRows(row, count); err != nil {
		return err
	}
	// Clamp the bounds decrement to rows that actually held content, so
	// repeated out-of-range deletes cannot shrink bounds below live data.
	if over := min(e.maxRow, row+count-1) - row + 1; over > 0 {
		e.maxRow -= over
	}
	e.cache.ShiftRows(row, -count)
	if err := e.applyShift(formula.DeleteRows(row, count), depgraph.Rows, row, -count); err != nil {
		return err
	}
	if err := e.recalcSeeds(shiftSeeds(seeds, depgraph.Rows, row, count)); err != nil {
		return err
	}
	e.bumpGeneration()
	return e.saveLocked()
}

// InsertColumnAfter inserts one spreadsheet column after `col`.
func (e *Engine) InsertColumnAfter(col int) error { return e.InsertColumnsAfter(col, 1) }

// InsertColumnsAfter inserts count columns after `col` as one batched
// structural edit.
func (e *Engine) InsertColumnsAfter(col, count int) error {
	if count < 1 {
		return fmt.Errorf("core: insert of %d columns", count)
	}
	if col < 0 {
		return fmt.Errorf("core: insert after column %d", col)
	}
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWritesDrained()
	defer unlock()
	e.lastEdit = EditStats{}
	if err := e.store.InsertColumnsAfter(col, count); err != nil {
		return err
	}
	at := col + 1
	if col < e.maxCol {
		e.maxCol += count
	}
	e.cache.ShiftCols(at, count)
	if err := e.applyShift(formula.InsertCols(at, count), depgraph.Cols, at, count); err != nil {
		return err
	}
	band := sheet.NewRange(1, at, maxCoord, at+count-1)
	if err := e.recalcSeeds(e.deps.DirectDependents(band)); err != nil {
		return err
	}
	e.bumpGeneration()
	return e.saveLocked()
}

// DeleteColumn removes one spreadsheet column.
func (e *Engine) DeleteColumn(col int) error { return e.DeleteColumns(col, 1) }

// DeleteColumns removes the count columns [col, col+count-1] as one batched
// structural edit.
func (e *Engine) DeleteColumns(col, count int) error {
	if count < 1 {
		return fmt.Errorf("core: delete of %d columns", count)
	}
	if col < 1 {
		return fmt.Errorf("core: delete of column %d", col)
	}
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWritesDrained()
	defer unlock()
	e.lastEdit = EditStats{}
	band := sheet.NewRange(1, col, maxCoord, col+count-1)
	seeds := e.deps.DirectDependents(band)
	if err := e.store.DeleteColumns(col, count); err != nil {
		return err
	}
	if over := min(e.maxCol, col+count-1) - col + 1; over > 0 {
		e.maxCol -= over
	}
	e.cache.ShiftCols(col, -count)
	if err := e.applyShift(formula.DeleteCols(col, count), depgraph.Cols, col, -count); err != nil {
		return err
	}
	if err := e.recalcSeeds(shiftSeeds(seeds, depgraph.Cols, col, count)); err != nil {
		return err
	}
	e.bumpGeneration()
	return e.saveLocked()
}

// maxCoord bounds the open edge of an edit band (any real reference fits).
const maxCoord = 1 << 29

// applyShift relocates the engine's formula state under a structural edit:
// the dependency graph shifts its registrations in place and reports which
// formulas moved, which read across the edit, and which were deleted; only
// the crossing formulas get their ASTs rewritten and their stored source
// updated. delta follows depgraph.Shift: positive inserts before `at`,
// negative deletes -delta rows/columns starting at `at`.
func (e *Engine) applyShift(sh formula.Shift, axis depgraph.Axis, at, delta int) error {
	// Classify the graph-invisible constants BEFORE any key mutation: their
	// pre-shift positions must be judged against the pre-shift sheet.
	constMoves, constDrops := e.classifyConstants(axis, at, delta)
	res := e.deps.Shift(axis, at, delta)

	// Re-key every moved expression (graph movers and constants alike) in
	// phases: capture old entries, delete every vacated or deleted key,
	// then write the new keys — a dropped cell's old key may be another
	// formula's new home.
	moved := make([]formula.Expr, len(res.MovedOld)+len(constMoves))
	for i, old := range res.MovedOld {
		moved[i] = e.exprs[old]
		delete(e.exprs, old)
	}
	for i, m := range constMoves {
		moved[len(res.MovedOld)+i] = e.exprs[m.old]
		delete(e.exprs, m.old)
		delete(e.constants, m.old)
	}
	for _, old := range res.Dropped {
		delete(e.exprs, old)
	}
	for _, old := range constDrops {
		delete(e.exprs, old)
		delete(e.constants, old)
	}
	for i, nw := range res.MovedNew {
		e.exprs[nw] = moved[i]
	}
	for i, m := range constMoves {
		e.exprs[m.nw] = moved[len(res.MovedOld)+i]
		e.constants[m.nw] = struct{}{}
	}
	// Cycle-poisoned formulas live only in e.cycles (no expression, no
	// graph entry); re-key them the same way so their manifest entry tracks
	// the cell their stored text moved with.
	var cycleMoves []constMove
	var cycleDrops []sheet.Ref
	if len(e.cycles) > 0 {
		refs := make([]sheet.Ref, 0, len(e.cycles))
		for ref := range e.cycles {
			refs = append(refs, ref)
		}
		cycleMoves, cycleDrops = classifyShift(refs, axis, at, delta)
		srcs := make([]string, len(cycleMoves))
		for i, m := range cycleMoves {
			srcs[i] = e.cycles[m.old]
			delete(e.cycles, m.old)
		}
		for _, old := range cycleDrops {
			delete(e.cycles, old)
		}
		for i, m := range cycleMoves {
			e.cycles[m.nw] = srcs[i]
		}
		// Their source text must track the edit too: a poisoned formula's
		// references shift exactly like a live formula's, or the persisted
		// text goes stale and re-registers against unrelated cells after a
		// later reload. Poisoned sources parsed at install time, so Parse
		// cannot fail here; the same unreadable-block guard as the crosser
		// rewrite protects the stored cell.
		for ref, src := range e.cycles {
			expr, err := formula.Parse(src)
			if err != nil {
				continue
			}
			txt := sh.Apply(expr).String()
			if txt == src {
				continue
			}
			e.cycles[ref] = txt
			cell := e.cache.Get(ref)
			if err := e.cache.TakeErr(); err != nil {
				return fmt.Errorf("core: structural edit reading cycle cell %v: %w", ref, err)
			}
			cell.Formula = txt
			if err := e.cache.Put(ref, cell); err != nil {
				return err
			}
			e.formulasDirty = true
		}
	}
	e.lastEdit.Relocated += len(res.MovedNew) + len(constMoves) + len(cycleMoves)
	e.lastEdit.Dropped += len(res.Dropped) + len(constDrops) + len(cycleDrops)
	if e.lastEdit.Relocated+e.lastEdit.Dropped+len(res.Rewritten) > 0 {
		e.formulasDirty = true
	}

	// Rewrite the crossers: AST reference rewrite (no reparse — the parsed
	// expression is shifted directly), authoritative re-registration, and
	// one storage write for the changed source text.
	for _, ref := range res.Rewritten {
		old, ok := e.exprs[ref]
		if !ok {
			continue
		}
		expr := sh.Apply(old)
		e.exprs[ref] = expr
		e.setDeps(ref, formula.Refs(expr))
		cell := e.cache.Get(ref)
		// An unreadable block renders blank and records the failure; writing
		// that blank through would silently replace the cell's stored value.
		// Fail the edit instead of persisting it.
		if err := e.cache.TakeErr(); err != nil {
			return fmt.Errorf("core: structural edit reading formula cell %v: %w", ref, err)
		}
		cell.Formula = expr.String()
		if err := e.cache.Put(ref, cell); err != nil {
			return err
		}
	}
	e.lastEdit.Rewritten += len(res.Rewritten)
	return nil
}

type constMove struct{ old, nw sheet.Ref }

// classifyConstants splits the read-less formulas (graph-invisible) into
// those relocated and those destroyed by the edit. Their text never changes
// — they reference nothing — so relocation is in-memory re-keying only.
func (e *Engine) classifyConstants(axis depgraph.Axis, at, delta int) (moves []constMove, drops []sheet.Ref) {
	if len(e.constants) == 0 {
		return nil, nil
	}
	refs := make([]sheet.Ref, 0, len(e.constants))
	for ref := range e.constants {
		refs = append(refs, ref)
	}
	return classifyShift(refs, axis, at, delta)
}

// classifyShift maps a set of cell keys through a structural shift,
// splitting them into movers (with their new positions) and drops.
func classifyShift(refs []sheet.Ref, axis depgraph.Axis, at, delta int) (moves []constMove, drops []sheet.Ref) {
	for _, ref := range refs {
		idx := ref.Col
		if axis == depgraph.Rows {
			idx = ref.Row
		}
		switch nwIdx, ok := depgraph.ShiftIndex(idx, at, delta); {
		case !ok:
			drops = append(drops, ref)
		case nwIdx != idx:
			nw := ref
			if axis == depgraph.Rows {
				nw.Row = nwIdx
			} else {
				nw.Col = nwIdx
			}
			moves = append(moves, constMove{ref, nw})
		}
	}
	return moves, drops
}

// shiftSeeds maps pre-edit recompute seeds through a deletion: seeds inside
// the deleted band vanish (their formulas are gone), seeds past it shift.
func shiftSeeds(seeds []sheet.Ref, axis depgraph.Axis, at, count int) []sheet.Ref {
	out := seeds[:0]
	for _, r := range seeds {
		idx := r.Col
		if axis == depgraph.Rows {
			idx = r.Row
		}
		nw, ok := depgraph.ShiftIndex(idx, at, -count)
		if !ok {
			continue // the seed formula itself was deleted
		}
		if axis == depgraph.Rows {
			r.Row = nw
		} else {
			r.Col = nw
		}
		out = append(out, r)
	}
	return out
}

// recalcSeeds recalculates the seed formulas and their transitive
// dependents (the incremental replacement for RecalcAll after structural
// edits).
func (e *Engine) recalcSeeds(seeds []sheet.Ref) error {
	// A structural edit may have broken a previously-poisoned cycle (e.g. by
	// deleting one of its members), so give stored cycle formulas a chance to
	// come back to life alongside the shifted seeds.
	seeds = append(seeds, e.reviveCycles()...)
	if len(seeds) == 0 {
		return nil
	}
	e.lastEdit.Recomputed = e.markRecalc(seeds, nil)
	return e.recalc()
}
