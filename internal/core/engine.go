// Package core implements the DATASPREAD engine of Section VI: the
// execution engine (formula parser, dependency graph, evaluator, LRU cell
// cache) layered on the storage engine (hybrid translator over ROM / COM /
// RCV / TOM regions with positional mapping). It exposes the
// spreadsheet-oriented and database-oriented operations of Section III.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dataspread/internal/cache"
	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/hybrid"
	"dataspread/internal/model"
	"dataspread/internal/rdbms"
	"dataspread/internal/sheet"
)

// Options configures an Engine.
type Options struct {
	// Scheme selects the positional mapping ("hierarchical" default;
	// "position-as-is" and "monotonic" reproduce the paper's baselines).
	Scheme string
	// CacheBlocks caps the LRU cell cache (0: default).
	CacheBlocks int
	// CostParams drives the hybrid optimizer (zero value: PostgresCost).
	CostParams hybrid.CostParams
	// AsyncRecalc chooses who runs the recalc plan. Every edit marks its
	// dependency cone pending, and one evaluator commits the cone in
	// topological waves. With AsyncRecalc (the paper's LazyBrowsing
	// direction) a background dispatcher runs it — the edit returns at
	// once, cells inside registered viewports converge first. Default
	// false: the editing goroutine runs it before the edit returns (tests,
	// single-user CLI). See recalc.go.
	AsyncRecalc bool
	// RecalcWorkers bounds the evaluator's per-chunk worker pool in either
	// mode (0: GOMAXPROCS capped at 4).
	RecalcWorkers int
}

// Engine is one open spreadsheet bound to a database.
type Engine struct {
	name  string
	db    *rdbms.DB
	store *model.HybridStore
	cache *cache.Cache
	deps  *depgraph.Graph
	// exprs holds parsed formulas by cell.
	exprs map[sheet.Ref]formula.Expr
	// constants tracks formulas with no cell reads (literal arithmetic,
	// #REF!-poisoned expressions). They are invisible to the dependency
	// graph, so structural edits relocate them through this set.
	constants map[sheet.Ref]struct{}
	// cycles tracks cycle-poisoned formulas by source text: they are
	// registered nowhere else in memory (installFormula leaves them out of
	// exprs and the graph), but their source must ride along in the engine
	// manifest so a snapshot-free Load can re-register them.
	cycles map[sheet.Ref]string
	// bounds tracks the content extent.
	maxRow, maxCol int
	params         hybrid.CostParams
	seq            int
	cacheBlocks    int
	// lastEdit records the work done by the most recent structural edit.
	lastEdit EditStats
	// formulasDirty marks the formula population as changed since the last
	// manifest save; a clean population skips re-serializing the formula
	// set entirely (the meta KV's byte-equality check backstops false
	// positives).
	formulasDirty bool
	// gen counts applied mutation batches; latches serializes concurrent
	// readers and writers per table (see latch.go). Both are inert for
	// single-goroutine use.
	gen     atomic.Uint64
	latches latchTable
	// writeMu serializes edit paths against each other and against the
	// recalc dispatcher's commit chunks.
	writeMu sync.Mutex
	// sched is the recalc evaluator (see recalc.go).
	sched *recalcScheduler
}

// storeBacking adapts the hybrid store to the cache's Backing interface:
// block loads are exactly the store's dense range reads (one page pin per
// heap page, projection pushed down to the viewport's columns), and load
// errors flow into the cache where Engine.ReadErr surfaces them.
type storeBacking struct{ hs *model.HybridStore }

func (b storeBacking) LoadBlock(g sheet.Range) ([][]sheet.Cell, error) {
	return b.hs.GetCells(g)
}

func (b storeBacking) StoreCell(r sheet.Ref, c sheet.Cell) error {
	return b.hs.Update(r.Row, r.Col, c)
}

// New opens an empty spreadsheet named name on the database.
func New(db *rdbms.DB, name string, opts Options) (*Engine, error) {
	if err := validateSheetName(name); err != nil {
		return nil, err
	}
	if opts.CostParams == (hybrid.CostParams{}) {
		opts.CostParams = hybrid.PostgresCost
	}
	hs, err := model.NewHybridStore(db, name, opts.Scheme)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		name:        name,
		db:          db,
		store:       hs,
		deps:        depgraph.New(),
		exprs:       make(map[sheet.Ref]formula.Expr),
		constants:   make(map[sheet.Ref]struct{}),
		cycles:      make(map[sheet.Ref]string),
		params:      opts.CostParams,
		cacheBlocks: opts.CacheBlocks,
	}
	e.cache = newEngineCache(e)
	e.startRecalc(opts)
	return e, nil
}

// newEngineCache builds the LRU cell cache over the engine's current store.
func newEngineCache(e *Engine) *cache.Cache {
	return cache.New(storeBacking{e.store}, e.cacheBlocks)
}

// Open loads a sheet into a new engine, choosing the physical layout with
// the hybrid optimizer (algo: "dp", "greedy", "agg", "rom", "com", "rcv").
func Open(db *rdbms.DB, name string, s *sheet.Sheet, algo string, opts Options) (*Engine, error) {
	if err := validateSheetName(name); err != nil {
		return nil, err
	}
	if opts.CostParams == (hybrid.CostParams{}) {
		opts.CostParams = hybrid.PostgresCost
	}
	d, err := hybrid.Decompose(s, algo, hybrid.Options{Params: opts.CostParams, Models: hybrid.AllModels})
	if err != nil {
		return nil, err
	}
	hs, err := model.Materialize(db, name, opts.Scheme, s, d)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		name:        name,
		db:          db,
		store:       hs,
		deps:        depgraph.New(),
		exprs:       make(map[sheet.Ref]formula.Expr),
		constants:   make(map[sheet.Ref]struct{}),
		cycles:      make(map[sheet.Ref]string),
		params:      opts.CostParams,
		cacheBlocks: opts.CacheBlocks,
	}
	e.cache = newEngineCache(e)
	e.startRecalc(opts)
	// Register formulas and evaluate the sheet once.
	var regErr error
	s.EachSorted(func(r sheet.Ref, c sheet.Cell) {
		e.grow(r.Row, r.Col)
		if c.HasFormula() && regErr == nil {
			if err := e.registerFormula(r, c.Formula); err != nil {
				regErr = err
			}
		}
	})
	if regErr != nil {
		return nil, regErr
	}
	if err := e.RecalcAll(); err != nil {
		return nil, err
	}
	return e, nil
}

// validateSheetName rejects names that would collide with the manifest
// key conventions: segment and formula-set keys live under ":"-separated
// suffixes of the sheet's meta keys, and name listings exclude any key
// with a ":" infix.
func validateSheetName(name string) error {
	if name == "" {
		return fmt.Errorf("core: empty sheet name")
	}
	if strings.Contains(name, ":") {
		return fmt.Errorf("core: sheet name %q must not contain ':'", name)
	}
	return nil
}

// DB exposes the backing database.
func (e *Engine) DB() *rdbms.DB { return e.db }

// Store exposes the hybrid store (for storage accounting in benchmarks).
func (e *Engine) Store() *model.HybridStore { return e.store }

// Bounds returns the tracked content extent.
func (e *Engine) Bounds() (rows, cols int) { return e.maxRow, e.maxCol }

func (e *Engine) grow(row, col int) {
	if row > e.maxRow {
		e.maxRow = row
	}
	if col > e.maxCol {
		e.maxCol = col
	}
}

// CellValue implements formula.Resolver through the cache.
func (e *Engine) CellValue(r sheet.Ref) sheet.Value { return e.cache.Get(r).Value }

// VisitRange implements formula.Resolver: the range streams out of the cell
// cache block by block (one reused row buffer, no materialized output grid),
// so aggregations over large ranges stay allocation-light.
func (e *Engine) VisitRange(g sheet.Range, fn func(sheet.Ref, sheet.Value) bool) {
	// Clip to content bounds to avoid materializing vast empty ranges.
	if g.To.Row > e.maxRow {
		g.To.Row = e.maxRow
	}
	if g.To.Col > e.maxCol {
		g.To.Col = e.maxCol
	}
	if g.To.Row < g.From.Row || g.To.Col < g.From.Col {
		return
	}
	e.cache.VisitRange(g, func(r sheet.Ref, c sheet.Cell) bool {
		return fn(r, c.Value)
	})
}

// GetCell returns one cell.
func (e *Engine) GetCell(row, col int) sheet.Cell {
	return e.cache.Get(sheet.Ref{Row: row, Col: col})
}

// GetCells is the getCells(range) primitive of Section III.
func (e *Engine) GetCells(g sheet.Range) [][]sheet.Cell { return e.cache.GetRange(g) }

// PeekCells materializes g from resident cache blocks only, returning
// (nil, false) when any covering block would need a storage read. Safe
// concurrently with a storage-layer writer — the serving layer's snapshot
// reads are built on it.
func (e *Engine) PeekCells(g sheet.Range) ([][]sheet.Cell, bool) { return e.cache.PeekRange(g) }

// ReadErr returns the first storage read error recorded since the last call
// and clears it (nil when none). The read primitives (GetCell, GetCells,
// VisitRange, CellValue) render unreadable cells blank rather than failing
// mid-render; callers that must distinguish blank from unreadable — a
// checksum-corrupt page, a torn data file — check ReadErr after reading.
func (e *Engine) ReadErr() error { return e.cache.TakeErr() }

// CacheStats returns the cell cache's hit/miss/eviction counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// writeGuard rejects mutations while the backing database is poisoned,
// before they touch in-memory state: a write applied in memory could never
// become durable, and would make the served state diverge from what a
// restart recovers. The returned error unwraps to rdbms.ErrReadOnly (and
// rdbms.ErrPoisoned), so callers degrade to read-only with one errors.Is.
// Reads are never guarded — they keep serving the committed generation and
// resident cache.
func (e *Engine) writeGuard() error {
	if err := e.db.Poisoned(); err != nil {
		return fmt.Errorf("core: %s: %w", e.name, err)
	}
	return nil
}

// Set writes user input: text beginning with '=' installs a formula,
// anything else a literal value; empty text clears the cell.
func (e *Engine) Set(row, col int, input string) error {
	if strings.HasPrefix(input, "=") {
		return e.SetFormula(row, col, input[1:])
	}
	return e.SetValue(row, col, sheet.ParseLiteral(input))
}

// SetValue writes a plain value and recomputes dependents (updateCell of
// Section III) — inline, or in the background in async mode.
func (e *Engine) SetValue(row, col int, v sheet.Value) error {
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWrites()
	defer unlock()
	ref := sheet.Ref{Row: row, Col: col}
	e.dropFormula(ref)
	if err := e.cache.Put(ref, sheet.Cell{Value: v}); err != nil {
		return err
	}
	e.grow(row, col)
	if err := e.finishEdit([]sheet.Ref{ref}); err != nil {
		return err
	}
	e.bumpGeneration()
	return nil
}

// Clear blanks a cell.
func (e *Engine) Clear(row, col int) error {
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWrites()
	defer unlock()
	ref := sheet.Ref{Row: row, Col: col}
	e.dropFormula(ref)
	if err := e.cache.Put(ref, sheet.Cell{}); err != nil {
		return err
	}
	if err := e.finishEdit([]sheet.Ref{ref}); err != nil {
		return err
	}
	e.bumpGeneration()
	return nil
}

// SetFormula installs a formula (source without '='), evaluates it, and
// recomputes dependents — inline, or in the background in async mode.
// Cycles poison the cell with #CYCLE!.
func (e *Engine) SetFormula(row, col int, src string) error {
	if err := e.writeGuard(); err != nil {
		return err
	}
	unlock := e.lockWrites()
	defer unlock()
	ref := sheet.Ref{Row: row, Col: col}
	if err := e.installFormula(ref, src); err != nil {
		return err
	}
	// Finish even when the install poisoned a cycle: dependents reading
	// the now-#CYCLE! cell must re-evaluate, exactly as the batch path's
	// seeded propagation does.
	if err := e.finishEdit([]sheet.Ref{ref}); err != nil {
		return err
	}
	e.bumpGeneration()
	return nil
}

// installFormula parses and registers a formula at ref, attaching its
// source to the cell (which keeps its previous displayed value) and
// marking it pending; the caller's finishEdit evaluates it with its
// dependents. Cycles poison the cell with #CYCLE! and move its
// registration to the cycle set.
func (e *Engine) installFormula(ref sheet.Ref, src string) error {
	expr, err := formula.Parse(src)
	if err != nil {
		return err
	}
	reads := formula.Refs(expr)
	e.dropFormula(ref)
	if e.deps.HasCycleAt(ref, reads) {
		if err := e.cache.Put(ref, sheet.Cell{Value: sheet.ErrCycle, Formula: src}); err != nil {
			return err
		}
		e.cycles[ref] = src
		e.formulasDirty = true
		e.grow(ref.Row, ref.Col)
		return nil
	}
	e.exprs[ref] = expr
	e.setDeps(ref, reads)
	e.formulasDirty = true
	old := e.cache.Get(ref)
	if err := e.cache.Put(ref, sheet.Cell{Value: old.Value, Formula: src}); err != nil {
		return err
	}
	e.cache.MarkPending(ref)
	e.grow(ref.Row, ref.Col)
	return nil
}

// CellEdit is one entry of a SetCells batch: user input addressed to a
// cell, following Set's convention ("=..." installs a formula, "" clears,
// anything else is a literal).
type CellEdit struct {
	Row, Col int
	Input    string
}

// SetCells applies a batch of edits through the bulk write path: plain
// values flow to the hybrid store in one batch (row-oriented regions
// rewrite each covered tuple once), dependent formulas recompute in a
// single propagation pass, and the whole batch is persisted with a single
// WAL commit — N edits cost one fsync instead of N (the group-commit write
// path; per-edit Set+Save costs one fsync each). Edits to the same cell
// apply in order: the last one wins. On an in-memory database the batch
// write path still applies, the WAL commit is a no-op.
func (e *Engine) SetCells(edits []CellEdit) error {
	if len(edits) == 0 {
		return nil
	}
	if err := e.ApplyCells(edits); err != nil {
		return err
	}
	return e.Save()
}

// ApplyCells is SetCells without the trailing Save: the batch applies to
// the store, cache, and dependency graph, but durability is the caller's.
// The serving layer uses the split to commit visibility (generation bump,
// overlay retirement) under its latches and run the WAL fsync after
// releasing them, so snapshot readers never wait on disk.
func (e *Engine) ApplyCells(edits []CellEdit) error {
	if len(edits) == 0 {
		return nil
	}
	if err := e.writeGuard(); err != nil {
		return err
	}
	// Validate the whole batch before mutating anything, so a malformed
	// edit rejects the batch instead of leaving it half-applied (per-cell
	// Set never exposes a value change without its propagation).
	for _, ed := range edits {
		if ed.Row < 1 || ed.Col < 1 {
			return fmt.Errorf("core: SetCells position (%d,%d) out of range", ed.Row, ed.Col)
		}
		if strings.HasPrefix(ed.Input, "=") {
			if _, err := formula.Parse(ed.Input[1:]); err != nil {
				return fmt.Errorf("core: SetCells formula at (%d,%d): %w", ed.Row, ed.Col, err)
			}
		}
	}
	unlock := e.lockWrites()
	defer unlock()
	// "Edits to the same cell apply in order: the last one wins" — keep
	// only the final edit per cell up front, so partitioning values from
	// formulas below cannot reorder same-cell edits (a literal following
	// a formula edit used to be overwritten by the formula's later
	// install).
	last := make(map[sheet.Ref]int, len(edits))
	for i, ed := range edits {
		last[sheet.Ref{Row: ed.Row, Col: ed.Col}] = i
	}
	var writes []model.CellWrite
	type formulaEdit struct {
		ref sheet.Ref
		src string
	}
	var formulas []formulaEdit
	refs := make([]sheet.Ref, 0, len(last))
	for i, ed := range edits {
		ref := sheet.Ref{Row: ed.Row, Col: ed.Col}
		if last[ref] != i {
			continue // superseded by a later edit to the same cell
		}
		refs = append(refs, ref)
		if strings.HasPrefix(ed.Input, "=") {
			formulas = append(formulas, formulaEdit{ref, ed.Input[1:]})
			continue
		}
		var c sheet.Cell
		if v := sheet.ParseLiteral(ed.Input); !v.IsEmpty() {
			c = sheet.Cell{Value: v}
		}
		writes = append(writes, model.CellWrite{Row: ed.Row, Col: ed.Col, Cell: c})
	}
	// The store write runs before any in-memory mutation: if it fails
	// (ENOSPC, a poisoned pager), formula registrations, the cache, the
	// dependency graph and the bounds are exactly as they were — no
	// half-applied batch.
	if err := e.store.UpdateCells(writes); err != nil {
		return err
	}
	for _, w := range writes {
		ref := sheet.Ref{Row: w.Row, Col: w.Col}
		e.dropFormula(ref)
		e.cache.Poke(ref, w.Cell)
		if !w.Cell.Value.IsEmpty() {
			e.grow(w.Row, w.Col)
		}
	}
	// Formulas install after the values they (typically) read.
	for _, f := range formulas {
		if err := e.installFormula(f.ref, f.src); err != nil {
			return err
		}
	}
	// One propagation pass seeded by the exact edited cells replaces the
	// per-edit recomputation of Set.
	if err := e.finishEdit(refs); err != nil {
		return err
	}
	e.bumpGeneration()
	return nil
}

func (e *Engine) dropFormula(ref sheet.Ref) {
	if _, ok := e.exprs[ref]; ok {
		e.formulasDirty = true
	} else if _, ok := e.cycles[ref]; ok {
		e.formulasDirty = true
	}
	delete(e.exprs, ref)
	delete(e.constants, ref)
	delete(e.cycles, ref)
	e.deps.Remove(ref)
	// The cell no longer computes anything: whatever is written next is its
	// definitive value.
	e.cache.ClearPending(ref)
}

// poisonCycles marks every ref in refs cycle-poisoned, unifying the
// bookkeeping with installFormula's cycle path: the cell keeps its formula
// text but displays #CYCLE!, and any live registration moves out of the
// formula set (exprs, constants, dependency graph) into e.cycles, so the
// persisted manifest records the poisoning — a Save/Load round-trip must
// not silently revive the formula as a live registration that re-evaluates
// to a value. Poisoned cells recover only when directly re-edited.
func (e *Engine) poisonCycles(refs []sheet.Ref) error {
	for _, ref := range refs {
		old := e.cache.Get(ref)
		src := old.Formula
		if src == "" {
			if s, ok := e.cycles[ref]; ok {
				src = s
			}
		}
		if err := e.cache.Put(ref, sheet.Cell{Value: sheet.ErrCycle, Formula: src}); err != nil {
			return err
		}
		if _, ok := e.exprs[ref]; ok {
			delete(e.exprs, ref)
			delete(e.constants, ref)
			e.deps.Remove(ref)
			e.cycles[ref] = src
			e.formulasDirty = true
		}
		e.cache.ClearPending(ref)
	}
	return nil
}

// setDeps registers a formula's reads, tracking read-less formulas in the
// constants set (the dependency graph forgets them).
func (e *Engine) setDeps(ref sheet.Ref, reads []sheet.Range) {
	e.deps.Set(ref, reads)
	if len(reads) == 0 {
		e.constants[ref] = struct{}{}
	} else {
		delete(e.constants, ref)
	}
}

// finishEdit completes an edit after its primary mutation: formulas whose
// cycle the edit broke are revived (re-registered), then the affected cone
// — the revived cells plus every dependent of the changed cells — is
// marked pending and recalculated.
func (e *Engine) finishEdit(changed []sheet.Ref) error {
	e.markRecalc(e.reviveCycles(), changed)
	return e.recalc()
}

// reviveCycles re-registers poisoned formulas whose cycle no longer exists
// after the current edit changed the dependency graph, returning the
// revived cells (row-major order, so a mutually-poisoned pair revives
// deterministically; the caller re-evaluates them). Breaking a cycle
// brings its cells back to life — standard spreadsheet behavior, and what
// keeps per-cell Set equivalent to batched SetCells, where a cycle
// transient within one batch never poisons at all.
func (e *Engine) reviveCycles() []sheet.Ref {
	if len(e.cycles) == 0 {
		return nil
	}
	refs := make([]sheet.Ref, 0, len(e.cycles))
	for ref := range e.cycles {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Row != refs[j].Row {
			return refs[i].Row < refs[j].Row
		}
		return refs[i].Col < refs[j].Col
	})
	var revived []sheet.Ref
	for _, ref := range refs {
		expr, err := formula.Parse(e.cycles[ref])
		if err != nil {
			continue
		}
		reads := formula.Refs(expr)
		if e.deps.HasCycleAt(ref, reads) {
			continue
		}
		delete(e.cycles, ref)
		e.exprs[ref] = expr
		e.setDeps(ref, reads)
		e.formulasDirty = true
		revived = append(revived, ref)
	}
	return revived
}

// RecalcAll recalculates every formula (initial load, or on demand): all
// of them are marked pending, and the plan evaluates them in dependency
// order, poisoning cycles.
func (e *Engine) RecalcAll() error {
	unlock := e.lockWrites()
	defer unlock()
	for ref := range e.exprs {
		e.cache.MarkPending(ref)
	}
	return e.recalc()
}

func (e *Engine) registerFormula(ref sheet.Ref, src string) error {
	expr, err := formula.Parse(src)
	if err != nil {
		return fmt.Errorf("core: formula at %v: %w", ref, err)
	}
	e.exprs[ref] = expr
	e.setDeps(ref, formula.Refs(expr))
	e.formulasDirty = true
	return nil
}
