// Formula recalculation — one evaluator, two runners. Every edit path
// (cell edits, formula installs, structural edits, RecalcAll) marks the
// cells it invalidates pending: a staleness bit in the cache sidecar,
// closed under dependents (every dependent of a pending cell is pending).
// The evaluator turns the pending set into a plan — the cone over it,
// cycle members first (poisoned #CYCLE!), then topological waves cut into
// bounded chunks — and commits it chunk by chunk: evaluate the chunk's
// cells in parallel (reads only; one wave's cells are mutually
// independent), write the changed values, clear their bits.
//
// Options.AsyncRecalc decides only who runs the plan:
//
//   - synchronous engines run it inline, on the editing goroutine, before
//     the edit returns — under the edit lock and whatever table latches the
//     caller holds, so the inline run takes neither itself;
//   - async engines (the paper's LazyBrowsing direction) hand it to a
//     dispatcher goroutine: the edit returns as soon as its own cells are
//     written, and the dispatcher evaluates the cone on a bounded worker
//     pool, cells inside registered viewports first, so what the user can
//     see converges first.
//
// Concurrency contract (lock order: table latches → writeMu → sched.mu →
// pending sidecar):
//
//   - Every edit path (SetValue/Clear/SetFormula/ApplyCells, structural
//     edits, Optimize, Save) holds writeMu, so engine maps (exprs,
//     constants, cycles, depgraph, bounds) have a single writer at a time.
//   - The dispatcher commits one bounded chunk at a time: it write-latches
//     the chunk's table segments (readers of other segments never wait),
//     takes writeMu, and runs the shared commit body. Put precedes
//     ClearPending, so a reader that samples a cell's bit before its value
//     never sees a stale value unflagged (serve's
//     TestServePendingSampledBeforeCells).
//   - Edits concurrent with a running plan set the restructure flag under
//     writeMu; the dispatcher checks it under writeMu before each chunk
//     commits, abandons the stale plan, and rebuilds from the pending bits,
//     whose closure property makes the rebuild exact
//     (TestRecalcAsyncEditBetweenChunks).
//   - When the pending set drains to zero the dispatcher persists the
//     recomputed values (manifest save + WAL flush), so a cleanly closed
//     async engine is as durable as a synchronous one. Values computed
//     between drains are volatile until the next drain — formulas and the
//     edits themselves are durable at edit time (see README). The inline
//     runner never saves: a synchronous edit's values become durable with
//     the caller's next Save, exactly like the edit itself.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dataspread/internal/depgraph"
	"dataspread/internal/formula"
	"dataspread/internal/sheet"
)

// recalcChunkSize bounds how many cells one commit holds write latches
// for: large enough to amortize latch churn and fan work to the pool,
// small enough that a viewport read never waits behind a long commit.
const recalcChunkSize = 512

var errEngineClosed = fmt.Errorf("core: engine closed")

type recalcScheduler struct {
	e       *Engine
	workers int
	// async selects the runner: the dispatcher goroutine (true) or the
	// editing goroutine (false). See Engine.recalc.
	async bool
	done  chan struct{} // closed when the dispatcher exits (at once if none)

	mu   sync.Mutex
	cond *sync.Cond // new work, chunk completion, viewport change, close

	// restructure tells the dispatcher its plan is stale: an edit changed
	// the pending set (or a viewport moved), so the evaluation plan must
	// be rebuilt from the pending bits.
	restructure bool
	closed      bool
	// stalled is set when an evaluation or commit error left cells
	// pending; the dispatcher backs off until the next edit instead of
	// hot-looping against a poisoned store, and Drain returns lastErr.
	stalled bool
	lastErr error

	viewports map[int]sheet.Range
	nextVP    int

	// beforeChunk, when set, runs before each dispatcher chunk takes its
	// latches: a test hook for edits racing a running plan. Nil in
	// production.
	beforeChunk func()
}

// startRecalc attaches the evaluator, plus its dispatcher goroutine when
// opts ask for background recalc.
func (e *Engine) startRecalc(opts Options) {
	workers := opts.RecalcWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 4 {
			workers = 4
		}
	}
	s := &recalcScheduler{
		e:         e,
		workers:   workers,
		async:     opts.AsyncRecalc,
		done:      make(chan struct{}),
		viewports: make(map[int]sheet.Range),
	}
	s.cond = sync.NewCond(&s.mu)
	e.sched = s
	if s.async {
		go s.run()
	} else {
		close(s.done)
	}
}

// AsyncRecalc reports whether this engine evaluates formulas in the
// background (Options.AsyncRecalc).
func (e *Engine) AsyncRecalc() bool { return e.sched.async }

// PendingCount returns how many cells await recalculation (0 on a
// synchronous engine between edits, unless an inline run failed).
func (e *Engine) PendingCount() int { return e.cache.PendingCount() }

// PendingInRange counts the pending cells inside g.
func (e *Engine) PendingInRange(g sheet.Range) int { return e.cache.PendingInRange(g) }

// PendingMask returns a per-cell staleness grid for g, nil when g is fully
// converged — the serving layer's get-range staleness flags.
func (e *Engine) PendingMask(g sheet.Range) [][]bool { return e.cache.PendingMask(g) }

// IsPending reports whether one cell's displayed value is stale.
func (e *Engine) IsPending(row, col int) bool {
	return e.cache.IsPending(sheet.Ref{Row: row, Col: col})
}

// RegisterViewport registers a region whose cells jump the dispatcher's
// queue (together with their pending ancestors), returning a handle for
// UpdateViewport/UnregisterViewport. Sessions register the region their
// user is looking at. A synchronous engine has no queue to steer: every
// edit converges before it returns, so 0 is returned (and ignored by the
// other calls).
func (e *Engine) RegisterViewport(g sheet.Range) int {
	if !e.sched.async {
		return 0
	}
	return e.sched.registerViewport(g)
}

// UpdateViewport moves a registered viewport (scrolling).
func (e *Engine) UpdateViewport(id int, g sheet.Range) { e.sched.updateViewport(id, g) }

// UnregisterViewport drops a registered viewport (session end).
func (e *Engine) UnregisterViewport(id int) { e.sched.unregisterViewport(id) }

// Drain blocks until no cell is pending, returning the evaluator's error
// when a failed commit left cells pending instead (poisoned store). On a
// synchronous engine every edit has already run its plan, so Drain returns
// at once.
func (e *Engine) Drain() error {
	return e.sched.wait(func() bool { return e.cache.PendingCount() == 0 })
}

// WaitRange blocks until no cell inside g is pending — "the viewport has
// converged".
func (e *Engine) WaitRange(g sheet.Range) error {
	return e.sched.wait(func() bool { return e.cache.PendingInRange(g) == 0 })
}

// Close stops the background dispatcher after a best-effort drain (a
// stalled evaluator stops without draining; its error is returned).
// Idempotent. The engine remains readable; on an async engine, edits after
// Close stay pending forever, while a synchronous engine keeps evaluating
// inline.
func (e *Engine) Close() error { return e.sched.close() }

// lockWrites serializes an edit path against other edits and the
// dispatcher's commit chunks.
func (e *Engine) lockWrites() func() {
	e.writeMu.Lock()
	return e.writeMu.Unlock
}

// lockWritesDrained acquires the edit lock at a moment when no cell is
// pending: structural shifts relocate cells, and no staleness bit may be
// left pointing at a pre-shift position. If the evaluator is stalled the
// lock is taken anyway — the caller's writeGuard rejects the mutation on
// the same poisoned store that stalled it.
func (e *Engine) lockWritesDrained() func() {
	for {
		e.writeMu.Lock()
		if e.cache.PendingCount() == 0 {
			return e.writeMu.Unlock
		}
		e.writeMu.Unlock()
		if err := e.Drain(); err != nil {
			e.writeMu.Lock()
			return e.writeMu.Unlock
		}
	}
}

// markRecalc marks pending the formula cells in seeds (which must
// themselves re-evaluate) plus the dependency cone of every cell in seeds
// and changed, returning how many cells it newly marked. Marking costs at
// most O(cone) and stops at cells already pending — no topological sort
// happens here, which is what lets an async edit touching a 100k-cell cone
// return immediately. Callers hold writeMu.
func (e *Engine) markRecalc(seeds, changed []sheet.Ref) int {
	n := 0
	for _, r := range seeds {
		if _, ok := e.exprs[r]; ok && e.cache.MarkPending(r) {
			n++
		}
	}
	return n + e.deps.MarkReach(append(changed, seeds...), e.cache.MarkPending)
}

// recalc evaluates the pending set: the one place the recalc mode is
// read. An async engine wakes the dispatcher and returns; a synchronous
// one runs the plan inline before the edit returns. Callers hold writeMu
// (and, when serving, the table latches of everything the edit dirties).
func (e *Engine) recalc() error {
	if e.sched.async {
		e.sched.wake()
		return nil
	}
	return e.sched.runLocked()
}

func (s *recalcScheduler) wake() {
	s.mu.Lock()
	s.restructure = true
	s.stalled = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *recalcScheduler) registerViewport(g sheet.Range) int {
	s.mu.Lock()
	s.nextVP++
	id := s.nextVP
	s.viewports[id] = g
	s.restructure = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return id
}

func (s *recalcScheduler) updateViewport(id int, g sheet.Range) {
	s.mu.Lock()
	if _, ok := s.viewports[id]; ok {
		s.viewports[id] = g
		s.restructure = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

func (s *recalcScheduler) unregisterViewport(id int) {
	s.mu.Lock()
	delete(s.viewports, id)
	s.mu.Unlock()
}

// wait blocks until done() holds, the evaluator stalls, or it closes.
func (s *recalcScheduler) wait(done func() bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if done() {
			return nil
		}
		if s.stalled {
			return s.lastErr
		}
		if s.closed {
			return errEngineClosed
		}
		s.cond.Wait()
	}
}

func (s *recalcScheduler) close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return nil
	}
	// Best-effort drain, so recomputed values reach the store before the
	// dispatcher stops; it saves them on its way out.
	for s.e.cache.PendingCount() > 0 && !s.stalled {
		s.cond.Wait()
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stalled {
		return s.lastErr
	}
	return nil
}

func (s *recalcScheduler) noteErr(err error) {
	s.mu.Lock()
	s.stalled = true
	s.lastErr = err
	s.cond.Broadcast()
	s.mu.Unlock()
}

// interrupted reports whether the current plan should be abandoned.
func (s *recalcScheduler) interrupted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed || s.restructure
}

// run is the dispatcher: sleep until woken, rebuild the plan from the
// pending bits, execute it chunk by chunk. On close it saves a drained
// sheet once more — it may have seen the close flag between its last
// commit and its drain-save — so a drained Close always leaves the
// recomputed values durable.
func (s *recalcScheduler) run() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for !s.closed && !s.restructure {
			s.cond.Wait()
		}
		if s.closed {
			stalled := s.stalled
			s.mu.Unlock()
			if !stalled {
				s.drainSave()
			}
			return
		}
		s.restructure = false
		s.mu.Unlock()
		s.process()
	}
}

// runLocked is the inline runner: the whole plan, committed on the calling
// goroutine, which holds writeMu and its edit's table latches. An error
// leaves the uncommitted cells pending, stalls the evaluator (Drain
// returns the error) and is returned to the edit; the next edit's plan
// retries them.
func (s *recalcScheduler) runLocked() error {
	var err error
	for _, ch := range s.planChunks(s.e.pendingCone()) {
		if err = s.commitChunkLocked(ch); err != nil {
			break
		}
	}
	s.mu.Lock()
	s.stalled, s.lastErr = err != nil, err
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}

// recalcChunk is one commit unit: refs are mutually independent (same
// topological wave), or the cycle set to poison.
type recalcChunk struct {
	refs  []sheet.Ref
	cycle bool
}

func (s *recalcScheduler) process() {
	// Viewport fast path first: the pending cells a user is looking at
	// (plus their pending ancestors) commit before the full plan's
	// cone-wide topological sort even starts — on a 100k-cell cone the
	// sort alone costs more than the whole hot pass.
	if !s.commitAll(s.buildHotPlan()) || !s.commitAll(s.buildPlan()) || s.interrupted() {
		return
	}
	s.drainSave()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// commitAll is the dispatcher's chunk loop: commit each chunk, waking
// Drain/WaitRange watchers after each, until the plan is done (true), goes
// stale, or fails.
func (s *recalcScheduler) commitAll(plan []recalcChunk) bool {
	for _, chunk := range plan {
		ran, err := s.commitChunk(chunk)
		if err != nil {
			s.noteErr(err)
			return false
		}
		if !ran {
			return false
		}
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	return true
}

// buildHotPlan is the viewport fast path: pending cells inside registered
// viewports plus their pending ancestors, in topological waves, computed
// in O(viewport cone). Ancestors on dependency cycles are left out (and
// left pending) — the full plan poisons them and everything downstream.
func (s *recalcScheduler) buildHotPlan() []recalcChunk {
	s.mu.Lock()
	vps := make([]sheet.Range, 0, len(s.viewports))
	for _, g := range s.viewports {
		vps = append(vps, g)
	}
	s.mu.Unlock()
	if len(vps) == 0 {
		return nil
	}
	e := s.e
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	var seeds []sheet.Ref
	for _, g := range vps {
		seeds = append(seeds, e.cache.PendingRefsIn(g)...)
	}
	if len(seeds) == 0 {
		return nil
	}
	pending := func(r sheet.Ref) bool { return e.cache.IsPending(r) }
	var chunks []recalcChunk
	for _, wave := range e.deps.UpstreamWaves(seeds, pending) {
		chunks = appendChunks(chunks, wave, false)
	}
	return chunks
}

// appendChunks cuts refs into commit units of at most recalcChunkSize.
func appendChunks(chunks []recalcChunk, refs []sheet.Ref, cycle bool) []recalcChunk {
	for lo := 0; lo < len(refs); lo += recalcChunkSize {
		chunks = append(chunks, recalcChunk{refs: refs[lo:min(lo+recalcChunkSize, len(refs))], cycle: cycle})
	}
	return chunks
}

// pendingCone is the cone over the pending set (nil when nothing is
// pending). Callers hold writeMu.
func (e *Engine) pendingCone() *depgraph.Cone {
	pending := e.cache.PendingRefs()
	if len(pending) == 0 {
		return nil
	}
	return e.deps.ConeFrom(pending)
}

// buildPlan is the dispatcher's plan: the pending cone is taken under the
// edit lock, the chunking runs outside it.
func (s *recalcScheduler) buildPlan() []recalcChunk {
	s.e.writeMu.Lock()
	cone := s.e.pendingCone()
	s.e.writeMu.Unlock()
	return s.planChunks(cone)
}

// planChunks derives the evaluation plan from a pending cone: cycle
// members first, then the cone's topological waves, hot (viewport cells
// and their pending ancestors) before cold, waves cut into bounded chunks.
func (s *recalcScheduler) planChunks(cone *depgraph.Cone) []recalcChunk {
	if cone == nil {
		return nil
	}
	// Cycle members (and everything downstream of them) poison first:
	// their value is #CYCLE! regardless of inputs, and poisoning them
	// unblocks nothing — but readers stop seeing them as pending.
	chunks := appendChunks(nil, cone.Cycles, true)

	hot := s.hotSet(cone)
	waves := cone.Waves()
	appendWaves := func(want bool) {
		for _, wave := range waves {
			sel := wave
			if hot != nil {
				sel = nil
				for _, r := range wave {
					if hot[r] == want {
						sel = append(sel, r)
					}
				}
			}
			chunks = appendChunks(chunks, sel, false)
		}
	}
	if hot != nil {
		// The hot pass is topologically closed: hotSet marks every
		// pending ancestor of a viewport cell hot, so hot waves never
		// read an uncommitted cold cell.
		appendWaves(true)
	}
	appendWaves(false)
	return chunks
}

// hotSet marks the cone members that should jump the queue: cells inside a
// registered viewport, plus — walking the evaluation order in reverse —
// every cone ancestor of a hot cell (its precedents must commit first
// anyway, so they are promoted together).
func (s *recalcScheduler) hotSet(cone *depgraph.Cone) map[sheet.Ref]bool {
	s.mu.Lock()
	vps := make([]sheet.Range, 0, len(s.viewports))
	for _, g := range s.viewports {
		vps = append(vps, g)
	}
	s.mu.Unlock()
	if len(vps) == 0 {
		return nil
	}
	inVP := func(r sheet.Ref) bool {
		for _, g := range vps {
			if g.Contains(r) {
				return true
			}
		}
		return false
	}
	hot := make(map[sheet.Ref]bool)
	for i := len(cone.Order) - 1; i >= 0; i-- {
		v := cone.Order[i]
		if inVP(v) {
			hot[v] = true
			continue
		}
		for _, w := range cone.Adj[v] {
			if hot[w] {
				hot[v] = true
				break
			}
		}
	}
	if len(hot) == 0 {
		return nil
	}
	return hot
}

// commitChunk is the dispatcher's commit: write-latch the chunk's table
// segments, take the edit lock and run the shared commit body — unless the
// plan went stale meanwhile, which it reports as ran == false. The check
// runs under writeMu because edits re-mark cells and set the restructure
// flag under it: a chunk planned before an edit must not commit after it,
// or it would evaluate cells against precedents the edit re-marked and
// clear their bits, leaving stale values unflagged.
func (s *recalcScheduler) commitChunk(ch recalcChunk) (ran bool, err error) {
	if s.beforeChunk != nil {
		s.beforeChunk()
	}
	release := s.e.WLatchRefs(ch.refs)
	defer release()
	s.e.writeMu.Lock()
	defer s.e.writeMu.Unlock()
	if s.interrupted() {
		return false, nil
	}
	return true, s.commitChunkLocked(ch)
}

// commitChunkLocked evaluates and commits one chunk: evaluate in parallel
// (reads only), commit serially, clear pending bits after each value is
// written. Callers hold writeMu and the chunk's write latches.
func (s *recalcScheduler) commitChunkLocked(ch recalcChunk) error {
	e := s.e
	if ch.cycle {
		live := ch.refs[:0:0]
		for _, r := range ch.refs {
			if e.cache.IsPending(r) {
				live = append(live, r)
			}
		}
		return e.poisonCycles(live)
	}
	type job struct {
		ref  sheet.Ref
		expr formula.Expr
	}
	jobs := make([]job, 0, len(ch.refs))
	for _, r := range ch.refs {
		if !e.cache.IsPending(r) {
			continue // committed or superseded since the plan was built
		}
		expr, ok := e.exprs[r]
		if !ok {
			// The formula was dropped or poisoned after planning; the
			// cell's current contents are definitive.
			e.cache.ClearPending(r)
			continue
		}
		jobs = append(jobs, job{r, expr})
	}
	if len(jobs) == 0 {
		return nil
	}
	vals := make([]sheet.Value, len(jobs))
	if nw := min(s.workers, len(jobs)); nw > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					vals[i] = formula.Eval(jobs[i].expr, e)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := range jobs {
			vals[i] = formula.Eval(jobs[i].expr, e)
		}
	}
	for i, j := range jobs {
		old := e.cache.Get(j.ref)
		if !old.Value.Equal(vals[i]) {
			if err := e.cache.Put(j.ref, sheet.Cell{Value: vals[i], Formula: old.Formula}); err != nil {
				return err
			}
		}
		e.cache.ClearPending(j.ref)
	}
	return nil
}

// drainSave persists the recomputed values once the pending set is empty:
// one manifest save plus one WAL flush, mirroring what Save would do.
func (s *recalcScheduler) drainSave() {
	e := s.e
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if e.cache.PendingCount() != 0 {
		return
	}
	if err := e.saveManifests(); err != nil {
		s.noteErr(err)
		return
	}
	if err := e.db.FlushWAL(); err != nil {
		s.noteErr(err)
	}
}
