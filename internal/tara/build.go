package tara

// The pipelined offline build — the only build path.
//
// The paper's bargain is "pay offline, answer online for free": Figure 9
// shows preprocessing — per-window mining plus archive/EPS construction —
// dominating end-to-end cost. Mining is embarrassingly parallel across
// tumbling windows (each window sees only its own transactions), but the
// knowledge base itself is order-sensitive: rule ids are interned first-seen
// and the TAR Archive delta-encodes per-rule series in window order, so a
// free-for-all append would change every downstream byte. The pipeline
// therefore splits the work by its ordering needs:
//
//	mine pool (parallel)    — frequent itemsets + rule derivation per window
//	sequencer (ordered)     — rule-id interning, strictly in window order
//	EPS pool (parallel)     — per-window slice construction from interned ids
//	committer (ordered)     — archive append + index append + bookkeeping
//
// Determinism argument: rules.Generate emits each window's rules in a sorted
// canonical order, the sequencer interns those rules window-by-window in
// index order (so the dictionary assigns the ids a one-window-at-a-time build
// would), and the committer appends archive records in (window, rule) order.
// Everything the knowledge base persists — dictionary order, archive bytes,
// window metadata — is therefore byte-identical at any parallelism; the EPS
// slices are pure functions of (ids, stats) and come out identical too.
// TestParallelBuildByteIdentical proves it by comparing whole serialized
// knowledge bases against a window-by-window reference build.
//
// Cancellation: the first stage error (or a parent-context cancellation)
// cancels the pipeline context; every stage selects on it, the committer
// stops at a consistent window prefix, and Wait returns only after every
// goroutine has exited — no leaks, which the cancellation test checks under
// -race.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"tara/internal/eps"
	"tara/internal/txdb"
)

// Build-stage counter layout (Framework.BuildCounters): cumulative
// nanoseconds per pipeline stage plus committed-window and rule counts,
// accounted lock-free while workers run.
const (
	bcQueueWaitNs = iota
	bcMineNs
	bcRuleGenNs
	bcEPSNs
	bcArchiveNs
	bcCommitNs
	bcWindows
	bcRules
	numBuildCounters
)

var buildCounterNames = []string{
	"build_queue_wait_ns",
	"build_mine_ns",
	"build_rulegen_ns",
	"build_eps_ns",
	"build_archive_ns",
	"build_commit_ns",
	"build_windows",
	"build_rules",
}

// Compile-time guard: the name table and the index constants move together.
var _ = [1]struct{}{}[len(buildCounterNames)-numBuildCounters]

// BuildCounters returns a snapshot of the cumulative build-stage counters:
// per-stage nanoseconds (queue wait, mine, rulegen, eps, archive, commit)
// plus committed window and rule counts. Safe to call while a build is in
// flight; counters are updated as windows commit.
func (f *Framework) BuildCounters() map[string]int64 {
	return f.buildCtr.Snapshot()
}

// recordBuildTiming folds one committed window's timing into the build
// counters. Called with f.mu held (commitWindow), but the counters are
// atomic so readers never need the lock.
func (f *Framework) recordBuildTiming(t Timing) {
	f.buildCtr.AddDuration(bcQueueWaitNs, t.QueueWait)
	f.buildCtr.AddDuration(bcMineNs, t.Mine)
	f.buildCtr.AddDuration(bcRuleGenNs, t.RuleGen)
	f.buildCtr.AddDuration(bcEPSNs, t.IndexTime)
	f.buildCtr.AddDuration(bcArchiveNs, t.ArchiveTime)
	f.buildCtr.AddDuration(bcCommitNs, t.Commit)
	f.buildCtr.Add(bcWindows, 1)
	f.buildCtr.Add(bcRules, int64(t.NumRules))
}

// buildGroup is a minimal errgroup: it runs stage goroutines, records the
// first error, and cancels the shared context so every other stage unwinds.
// (Hand-rolled because the module is stdlib-only.)
type buildGroup struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

func (g *buildGroup) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
			g.cancel()
		}
	}()
}

// Wait blocks until every stage goroutine has returned, then yields the
// first recorded error.
func (g *buildGroup) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// AppendWindows preprocesses a batch of windows and extends the knowledge
// base in window order, running the four-stage pipeline with
// Config.Parallelism workers in each parallel pool. See the comment at the
// top of this file for the design and determinism argument. A failed build
// keeps the consistent committed prefix, and ctx cancellation aborts cleanly
// with no goroutines left behind.
func (f *Framework) AppendWindows(parent context.Context, ws []txdb.Window) error {
	if err := parent.Err(); err != nil {
		return err
	}
	n := len(ws)
	workers := min(f.cfg.parallelism(), n)
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	g := &buildGroup{cancel: cancel}

	// Per-window hand-off slots. A slot is written by exactly one producer
	// goroutine and read only after its ready channel closes, so the close
	// provides the happens-before edge; no slot needs a lock.
	type minedSlot struct {
		m       mined
		ids     []eps.IDStats
		slice   *eps.Slice
		minedAt time.Time // when mining finished; queue wait is measured from here
	}
	slots := make([]minedSlot, n)
	minedReady := make([]chan struct{}, n) // closed by the mine pool
	sliceReady := make([]chan struct{}, n) // closed by the EPS pool
	for i := range minedReady {
		minedReady[i] = make(chan struct{})
		sliceReady[i] = make(chan struct{})
	}

	// Stage 1 — mine pool: bounded workers pull window indices and run the
	// Association Generator. Window order does not matter here; results park
	// in their slot until the sequencer reaches them.
	mineCh := make(chan int)
	g.Go(func() error {
		defer close(mineCh)
		for i := range ws {
			select {
			case mineCh <- i:
			case <-ctx.Done():
				return nil // the cancelling stage's error wins
			}
		}
		return nil
	})
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for i := range mineCh {
				m, err := f.mineWindow(ws[i])
				if err != nil {
					return err
				}
				slots[i].m = m
				slots[i].minedAt = time.Now()
				close(minedReady[i])
				if ctx.Err() != nil {
					return nil
				}
			}
			return nil
		})
	}

	// Stage 2 — sequencer: interns rule ids strictly in window order, the
	// step that pins dictionary ids (and hence every archive byte) to a
	// window-by-window assignment. Interning is cheap relative to mining, so
	// one ordered goroutine does not become the bottleneck.
	epsCh := make(chan int, workers)
	g.Go(func() error {
		defer close(epsCh)
		for i := 0; i < n; i++ {
			select {
			case <-minedReady[i]:
			case <-ctx.Done():
				return nil
			}
			s := &slots[i]
			s.m.timing.QueueWait = time.Since(s.minedAt)
			start := time.Now()
			s.ids = f.internRules(s.m.ruleSet)
			s.m.timing.ArchiveTime = time.Since(start)
			select {
			case epsCh <- i:
			case <-ctx.Done():
				return nil
			}
		}
		return nil
	})

	// Stage 3 — EPS pool: slice construction is the second-heaviest phase
	// (Figure 9) and depends only on the window's interned ids, so it runs
	// in parallel as soon as a window clears the sequencer.
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for i := range epsCh {
				s := &slots[i]
				start := time.Now()
				slice, err := f.buildSlice(s.m.window, s.ids)
				if err != nil {
					return err
				}
				s.m.timing.IndexTime = time.Since(start)
				s.slice = slice
				close(sliceReady[i])
				if ctx.Err() != nil {
					return nil
				}
			}
			return nil
		})
	}

	// Stage 4 — committer: appends archive records and the EPS slice in
	// window order under the framework write lock, so concurrent queries
	// observe whole windows and the archive's delta encoding sees windows
	// strictly sequentially.
	committed := 0
	g.Go(func() error {
		for i := 0; i < n; i++ {
			select {
			case <-sliceReady[i]:
			case <-ctx.Done():
				return nil
			}
			s := &slots[i]
			if err := f.commitWindow(s.m, s.ids, s.slice); err != nil {
				return err
			}
			// Release the window's rules as soon as they are committed, so a
			// long build holds only the windows still in flight.
			*s = minedSlot{}
			committed++
		}
		return nil
	})

	if err := g.Wait(); err != nil {
		return err
	}
	if committed != n {
		// No stage failed, so the abort came from the parent context.
		if err := parent.Err(); err != nil {
			return err
		}
		return fmt.Errorf("tara: build stopped after %d/%d windows", committed, n)
	}
	return nil
}
