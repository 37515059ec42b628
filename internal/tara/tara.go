// Package tara implements the TARA framework of the paper: an interactive
// temporal association analytics system. The offline phase (Build /
// AppendWindow) runs the Association Generator over each tumbling window and
// constructs the knowledge base — the TAR Archive of per-rule parameter
// values across time plus the Evolving Parameter Space index of time-aware
// stable regions. The online Explorer methods (see explore.go) answer the
// paper's query classes Q1–Q5 from the knowledge base alone, without
// touching transaction data.
package tara

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tara/internal/archive"
	"tara/internal/eps"
	"tara/internal/kb"
	"tara/internal/mining"
	"tara/internal/obs"
	"tara/internal/rules"
	"tara/internal/traj"
	"tara/internal/txdb"
)

// Config parameterizes offline preprocessing.
type Config struct {
	// GenMinSupport is the generation-time minimum support (Table 4 of the
	// paper): rules below it are not pregenerated. Lower values make the
	// knowledge base larger but queries below the threshold unanswerable.
	GenMinSupport float64
	// GenMinConf is the generation-time minimum confidence.
	GenMinConf float64
	// MaxItemsetLen caps the length of mined itemsets (and thus |X∪Y|).
	// Non-positive means unlimited.
	MaxItemsetLen int
	// Miner selects the frequent-itemset algorithm; nil means Eclat.
	Miner mining.Miner
	// ContentIndex enables the TARA-S per-region rule content index that
	// accelerates content-based exploration (Q5).
	ContentIndex bool
	// Parallelism is the number of workers in each parallel pool of the
	// pipelined build (see build.go); values below 1 mean one worker. The
	// on-disk output is byte-identical at any parallelism. Callers wanting
	// full parallelism pass runtime.GOMAXPROCS(0).
	Parallelism int
	// QueryCacheSize bounds the online query cache (see cache.go): the
	// number of canonicalized answers memoized across windows and query
	// classes. Zero selects 4096 entries; negative disables the
	// cache entirely (every query recollects from the EPS index).
	QueryCacheSize int
}

func (c Config) miner() mining.Miner {
	if c.Miner == nil {
		return mining.Eclat{}
	}
	return c.Miner
}

// parallelism normalizes Config.Parallelism: anything below 1 is one
// worker.
func (c Config) parallelism() int {
	if c.Parallelism < 1 {
		return 1
	}
	return c.Parallelism
}

// Timing records where one window's preprocessing time went, the breakdown
// reported in Figure 9.
type Timing struct {
	Window      int
	Mine        time.Duration // frequent itemset generation
	RuleGen     time.Duration // rule derivation
	ArchiveTime time.Duration // rule-ID interning + TAR Archive append
	IndexTime   time.Duration // EPS slice construction
	// QueueWait is how long the mined window sat waiting for the ordered
	// commit stages of the pipelined build (zero for AppendRules): the
	// pipeline's head-of-line latency, not work.
	QueueWait time.Duration
	// Commit is the ordered committer's critical section beyond the archive
	// append — EPS index append plus knowledge-base bookkeeping under the
	// framework write lock.
	Commit      time.Duration
	NumItemsets int
	NumRules    int

	// Build telemetry beyond the Figure 9 breakdown.

	// NumLocations is the number of distinct (support, confidence) locations
	// in the window's EPS slice; SuppCuts × ConfCuts is its grid extent.
	NumLocations int
	SuppCuts     int
	ConfCuts     int
	// ArchiveBytes is the compressed archive growth this window caused.
	ArchiveBytes int
	// LevelCandidates / LevelFrequent report, per itemset length (index 0 =
	// length 1), how many candidates the miner counted and how many survived
	// support pruning. Candidates are only known for level-wise miners
	// (Apriori); pattern-growth miners leave LevelCandidates nil.
	LevelCandidates []int
	LevelFrequent   []int
}

// Total returns the window's total preprocessing work time. QueueWait is
// excluded: it is pipeline latency, not work, and including it would make
// wider builds look more expensive than narrower ones doing identical work.
func (t Timing) Total() time.Duration {
	return t.Mine + t.RuleGen + t.ArchiveTime + t.IndexTime + t.Commit
}

// WindowInfo is the retained metadata of a processed window; the raw
// transactions are not kept in the knowledge base.
type WindowInfo struct {
	Index  int
	Period txdb.Period
	N      uint32
}

// Framework is a built TARA instance: configuration, dictionaries and the
// knowledge base. All exported methods are safe for concurrent use, including
// queries running while AppendWindow grows the knowledge base: appends take
// the write lock, queries the read lock, so a query observes the knowledge
// base either before or after a window lands, never mid-append. cfg and
// itemDict are immutable after construction; ruleDict is internally
// synchronized (query paths resolve rule ids outside the framework lock).
//
// The raw Archive and Index accessors hand out the underlying structures
// without synchronization — they are for offline inspection and reporting,
// not for use concurrent with AppendWindow.
type Framework struct {
	cfg      Config
	itemDict *txdb.Dict
	ruleDict *rules.Dict
	arch     *archive.Archive
	index    *eps.Index
	windows  []WindowInfo
	timings  []Timing

	// mu guards the knowledge base: commitWindowLocked holds it for writing;
	// queries hold it for reading. Exported query methods lock it and call
	// unexported *Locked implementations, never each other, so a goroutine
	// holds at most one read lock (nested RLock can deadlock with a waiting
	// writer).
	mu sync.RWMutex

	// qcache memoizes canonicalized online answers (see cache.go); nil when
	// Config.QueryCacheSize is negative. It is internally synchronized —
	// query paths consult it while holding mu for reading, commitWindowLocked
	// invalidates while holding mu for writing.
	qcache *queryCache

	// buildCtr accumulates per-stage offline-build time and counts across
	// all committed windows (see build.go for the layout). Lock-free, so
	// pipeline workers account concurrently without touching mu.
	buildCtr *obs.CounterSet

	// genCtr counts committed windows monotonically; Generation() feeds
	// response validators (ETags) that must change whenever the knowledge
	// base grows. Bumped after the commit's write lock is released, so a
	// generation observed together with a query answer is never newer than
	// the knowledge base that produced the answer.
	genCtr atomic.Uint64

	// trajMu guards the lazily built columnar trajectory snapshot (traj.go).
	// Always acquired after mu; appends never take it, so snapshot builds
	// only contend with other trajectory queries.
	trajMu       sync.Mutex
	trajSnap     *traj.Snapshot
	trajRebuilds atomic.Uint64

	// appendHooks are run after every committed window, outside the
	// framework lock (a hook may issue queries). Registered via OnAppend;
	// the daemon uses this to invalidate its encoded-response cache.
	hooksMu     sync.Mutex
	appendHooks []func(window int)

	// kbf is the mapped knowledge-base container behind a framework returned
	// by Open / OpenBytes, nil otherwise; loadMode records how it entered
	// memory (see LoadMode). Both are set once at open and never change, so
	// they need no lock. The mapping must stay open for the framework's
	// lifetime — archive payloads, posting streams and rule keys are served
	// as views of the mapped bytes until an append promotes them.
	kbf      *kb.File
	loadMode string
}

// New returns an empty framework sharing the given item dictionary. Windows
// are added with AppendWindow; Build wraps partitioning plus appends.
func New(itemDict *txdb.Dict, cfg Config) *Framework {
	f := &Framework{
		cfg:      cfg,
		itemDict: itemDict,
		ruleDict: rules.NewDict(),
		arch:     archive.New(),
		index:    eps.NewIndex(),
		buildCtr: obs.NewCounterSet(buildCounterNames...),
	}
	if cfg.QueryCacheSize >= 0 {
		f.qcache = newQueryCache(cfg.QueryCacheSize)
	}
	return f
}

// Build partitions the database into count-based batches (numBatches) or,
// when windowSize > 0, into time-based tumbling windows, and preprocesses
// every window. It is the offline phase of Figure 2. The windows flow through
// the pipelined build (build.go); the knowledge base comes out byte-identical
// at any Config.Parallelism.
func Build(db *txdb.DB, windowSize int64, numBatches int, cfg Config) (*Framework, error) {
	return BuildContext(context.Background(), db, windowSize, numBatches, cfg)
}

// BuildContext is Build with cancellation: ctx cancels the whole worker pool,
// returning the context's error. On failure the partially built framework is
// discarded, matching Build's all-or-nothing contract.
func BuildContext(ctx context.Context, db *txdb.DB, windowSize int64, numBatches int, cfg Config) (*Framework, error) {
	var (
		ws  []txdb.Window
		err error
	)
	if windowSize > 0 {
		ws, err = db.PartitionByTime(windowSize)
	} else {
		ws, err = db.PartitionByCount(numBatches)
	}
	if err != nil {
		return nil, err
	}
	f := New(db.Dict, cfg)
	if err := f.AppendWindows(ctx, ws); err != nil {
		return nil, err
	}
	return f, nil
}

// mined is the output of the mining phase for one window.
type mined struct {
	window  txdb.Window
	ruleSet []rules.WithStats
	timing  Timing
}

// AppendWindow preprocesses one new window and extends the knowledge base —
// the incremental construction path (iPARAS): arriving batches are absorbed
// without reprocessing history. The window's index must equal Windows().
func (f *Framework) AppendWindow(w txdb.Window) error {
	return f.AppendWindows(context.Background(), []txdb.Window{w})
}

// mineWindow runs the Association Generator for one window: frequent
// itemsets then rule derivation. It does not touch shared state.
func (f *Framework) mineWindow(w txdb.Window) (mined, error) {
	var m mined
	m.window = w
	minCount := mining.MinCountFor(f.cfg.GenMinSupport, len(w.Tx))

	start := time.Now()
	res, err := f.cfg.miner().Mine(w.Tx, mining.Params{MinCount: minCount, MaxLen: f.cfg.MaxItemsetLen})
	if err != nil {
		return m, fmt.Errorf("tara: window %d: mining: %w", w.Index, err)
	}
	m.timing.Mine = time.Since(start)
	m.timing.NumItemsets = res.Len()
	m.timing.LevelCandidates = res.LevelCandidates
	m.timing.LevelFrequent = res.FrequentPerLevel()

	start = time.Now()
	rs, err := rules.Generate(res, rules.GenParams{MinCount: minCount, MinConf: f.cfg.GenMinConf})
	if err != nil {
		return m, fmt.Errorf("tara: window %d: rule generation: %w", w.Index, err)
	}
	m.timing.RuleGen = time.Since(start)
	m.timing.NumRules = len(rs)
	m.timing.Window = w.Index
	m.ruleSet = rs
	return m, nil
}

// internRules resolves the window's rules to dense ids, in ruleSet order.
// The rule dictionary is internally synchronized and append-only, so ids may
// be interned before the window commits; an id that never commits (a later
// failure) is harmless — nothing in the archive or index references it.
func (f *Framework) internRules(rs []rules.WithStats) []eps.IDStats {
	ids := make([]eps.IDStats, len(rs))
	for i, r := range rs {
		ids[i] = eps.IDStats{ID: f.ruleDict.Add(r.Rule), Stats: r.Stats}
	}
	return ids
}

// buildSlice constructs the window's EPS slice from interned ids. Pure with
// respect to the knowledge base (the dictionary is read-locked internally),
// so pipeline workers run it concurrently.
func (f *Framework) buildSlice(w txdb.Window, ids []eps.IDStats) (*eps.Slice, error) {
	slice, err := eps.BuildSlice(w.Index, uint32(len(w.Tx)), ids, eps.Options{
		ContentIndex: f.cfg.ContentIndex,
		Dict:         f.ruleDict,
	})
	if err != nil {
		return nil, fmt.Errorf("tara: window %d: index: %w", w.Index, err)
	}
	return slice, nil
}

// commitWindow appends one fully prepared window to the knowledge base under
// the write lock, then bumps the generation and runs the append hooks with
// the lock released. Windows must commit in index order.
func (f *Framework) commitWindow(m mined, ids []eps.IDStats, slice *eps.Slice) error {
	if err := f.commitWindowLocked(m, ids, slice); err != nil {
		return err
	}
	f.genCtr.Add(1)
	f.notifyAppend(m.window.Index)
	return nil
}

// commitWindowLocked performs the commit proper: archive records (in ruleSet
// order — the byte-determinism anchor), the EPS slice, telemetry and window
// metadata, all under the write lock.
func (f *Framework) commitWindowLocked(m mined, ids []eps.IDStats, slice *eps.Slice) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := m.window
	if w.Index != len(f.windows) {
		return fmt.Errorf("tara: window %d appended at position %d", w.Index, len(f.windows))
	}

	start := time.Now()
	recs := make([]archive.Record, len(m.ruleSet))
	for i, r := range m.ruleSet {
		recs[i] = archive.Record{ID: ids[i].ID, CountXY: r.CountXY, CountX: r.CountX, CountY: r.CountY}
	}
	grew, err := f.arch.AppendWindow(uint32(len(w.Tx)), recs)
	if err != nil {
		return fmt.Errorf("tara: window %d: archive: %w", w.Index, err)
	}
	m.timing.ArchiveTime += time.Since(start)
	m.timing.ArchiveBytes = grew

	start = time.Now()
	if err := f.index.Append(slice); err != nil {
		return fmt.Errorf("tara: window %d: index: %w", w.Index, err)
	}
	m.timing.NumLocations = slice.NumLocations()
	m.timing.SuppCuts, m.timing.ConfCuts = slice.GridDims()
	f.timings = append(f.timings, m.timing)
	f.windows = append(f.windows, WindowInfo{Index: w.Index, Period: w.Period, N: uint32(len(w.Tx))})
	if f.qcache != nil {
		// Windows are append-only, so no stale entry for this index can
		// exist; invalidating anyway keeps "cached == fresh scan" a local
		// invariant rather than a global argument about construction order.
		f.qcache.InvalidateWindow(w.Index)
	}
	m.timing.Commit += time.Since(start)
	f.recordBuildTiming(m.timing)
	return nil
}

// AppendRules extends the knowledge base with one window of premined rules,
// skipping the Association Generator: the archive and EPS slice are built
// directly from the provided per-rule statistics. It serves ingestion paths
// where rules arrive from an external miner, and the online-query benchmarks
// that need large, precisely shaped parameter-space slices. The window's
// index must equal Windows(), like AppendWindow. The pipeline's sequencer,
// EPS and committer steps run inline.
func (f *Framework) AppendRules(w txdb.Window, rs []rules.WithStats) error {
	m := mined{window: w, ruleSet: rs, timing: Timing{Window: w.Index, NumRules: len(rs)}}
	start := time.Now()
	ids := f.internRules(rs)
	m.timing.ArchiveTime = time.Since(start)
	start = time.Now()
	slice, err := f.buildSlice(w, ids)
	if err != nil {
		return err
	}
	m.timing.IndexTime = time.Since(start)
	return f.commitWindow(m, ids, slice)
}

// OnAppend registers fn to run after every window commit, with the framework
// lock released (fn may query the framework). Hooks run on the committing
// goroutine in registration order. The daemon registers its encoded-response
// cache invalidation here, next to the query cache's built-in invalidation.
func (f *Framework) OnAppend(fn func(window int)) {
	f.hooksMu.Lock()
	f.appendHooks = append(f.appendHooks, fn)
	f.hooksMu.Unlock()
}

// notifyAppend runs the registered append hooks for window w.
func (f *Framework) notifyAppend(w int) {
	f.hooksMu.Lock()
	hooks := make([]func(int), len(f.appendHooks))
	copy(hooks, f.appendHooks)
	f.hooksMu.Unlock()
	for _, fn := range hooks {
		fn(w)
	}
}

// Generation returns the number of committed windows as a monotonic
// knowledge-base version. Any response validator derived from it (the
// daemon's ETags) changes whenever the knowledge base grows; since windows
// are append-only and immutable once committed, a (generation, window,
// canonical cut) triple identifies a query answer for all time.
func (f *Framework) Generation() uint64 { return f.genCtr.Load() }

// CanonicalCut maps a request point in window w to its stable region's
// canonical cut (Definition 12), the cut-grid index pair packed into one key
// word — the memoization key Lemma 4 licenses, exposed so response-level
// caches can canonicalize before hashing.
func (f *Framework) CanonicalCut(w int, minSupp, minConf float64) (uint64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	slice, err := f.index.Slice(w)
	if err != nil {
		return 0, err
	}
	return cutKey(slice.CutIndex(minSupp, minConf)), nil
}

// Windows returns the number of processed windows.
func (f *Framework) Windows() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.windows)
}

// Window returns metadata for window w.
func (f *Framework) Window(w int) (WindowInfo, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if w < 0 || w >= len(f.windows) {
		return WindowInfo{}, fmt.Errorf("tara: window %d out of range [0,%d)", w, len(f.windows))
	}
	return f.windows[w], nil
}

// WindowRange maps a time period to the windows it overlaps. It fails when
// the period misses every window.
func (f *Framework) WindowRange(p txdb.Period) (from, to int, err error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	from, to = -1, -1
	for _, w := range f.windows {
		if w.Period.Overlaps(p) {
			if from == -1 {
				from = w.Index
			}
			to = w.Index
		}
	}
	if from == -1 {
		return 0, 0, fmt.Errorf("tara: period %v overlaps no window", p)
	}
	return from, to, nil
}

// Timings returns a copy of the per-window preprocessing breakdown
// (Figure 9).
func (f *Framework) Timings() []Timing {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]Timing, len(f.timings))
	copy(out, f.timings)
	return out
}

// Summary describes the knowledge base for operators: per-window rule and
// location counts plus storage accounting.
type Summary struct {
	Windows          int
	Rules            int
	Items            int
	ArchiveEntries   int
	ArchiveBytes     int
	UncompressedByte int
	PerWindow        []WindowSummary
}

// WindowSummary is one window's slice statistics.
type WindowSummary struct {
	Window    int
	Period    txdb.Period
	N         uint32
	Rules     int
	Locations int
}

// Summarize computes the knowledge-base summary.
func (f *Framework) Summarize() Summary {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s := Summary{
		Windows:          len(f.windows),
		Rules:            f.ruleDict.Len(),
		Items:            f.itemDict.Len(),
		ArchiveEntries:   f.arch.NumEntries(),
		ArchiveBytes:     f.arch.SizeBytes(),
		UncompressedByte: f.arch.UncompressedBytes(),
	}
	for _, wi := range f.windows {
		ws := WindowSummary{Window: wi.Index, Period: wi.Period, N: wi.N}
		if slice, err := f.index.Slice(wi.Index); err == nil {
			ws.Rules = slice.NumRuleRefs()
			ws.Locations = slice.NumLocations()
		}
		s.PerWindow = append(s.PerWindow, ws)
	}
	return s
}

// Config returns the framework's configuration.
func (f *Framework) Config() Config { return f.cfg }

// ItemDict returns the shared item dictionary.
func (f *Framework) ItemDict() *txdb.Dict { return f.itemDict }

// RuleDict returns the rule dictionary.
func (f *Framework) RuleDict() *rules.Dict { return f.ruleDict }

// Archive returns the TAR Archive for size reporting and direct inspection.
// The returned structure is NOT synchronized with AppendWindow; use it only
// when no append can be in flight.
func (f *Framework) Archive() *archive.Archive { return f.arch }

// Index returns the EPS index. Like Archive, the returned structure is NOT
// synchronized with AppendWindow.
func (f *Framework) Index() *eps.Index { return f.index }
