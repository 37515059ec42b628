package tara

import (
	"fmt"
	"strings"
	"time"

	"tara/internal/archive"
)

// BuildReport aggregates the offline preprocessing telemetry across every
// processed window: where wall time went per phase (Figure 9), how much was
// mined and archived, and how well the TAR Archive compressed (Figure 12).
// It is the operator-facing companion to the per-window Timings.
type BuildReport struct {
	Windows   int `json:"windows"`
	Rules     int `json:"rules"`
	Items     int `json:"items"`
	Itemsets  int `json:"itemsets"`  // frequent itemsets summed over windows
	Locations int `json:"locations"` // EPS locations summed over windows

	// Parallelism is the build pipeline's workers per parallel pool.
	Parallelism int `json:"parallelism"`

	Mine    time.Duration `json:"mine_ns"`
	RuleGen time.Duration `json:"rulegen_ns"`
	Archive time.Duration `json:"archive_ns"`
	Index   time.Duration `json:"index_ns"`
	// Commit is the ordered committer's non-archive critical section (EPS
	// index append + bookkeeping); QueueWait is how long mined windows sat
	// waiting for the ordered stages — pipeline latency, excluded from Total.
	Commit    time.Duration `json:"commit_ns"`
	QueueWait time.Duration `json:"queue_wait_ns"`
	Total     time.Duration `json:"total_ns"`

	Storage archive.Telemetry `json:"storage"`

	// Timings is the per-window breakdown the totals were summed from.
	Timings []Timing `json:"timings,omitempty"`
}

// BuildReport computes the aggregate build telemetry. The per-window Timings
// are included by value; mutating them does not affect the framework.
func (f *Framework) BuildReport() BuildReport {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r := BuildReport{
		Windows:     len(f.windows),
		Rules:       f.ruleDict.Len(),
		Items:       f.itemDict.Len(),
		Parallelism: f.cfg.parallelism(),
		Storage:     f.arch.Telemetry(),
		Timings:     make([]Timing, len(f.timings)),
	}
	copy(r.Timings, f.timings)
	for _, t := range f.timings {
		r.Itemsets += t.NumItemsets
		r.Locations += t.NumLocations
		r.Mine += t.Mine
		r.RuleGen += t.RuleGen
		r.Archive += t.ArchiveTime
		r.Index += t.IndexTime
		r.Commit += t.Commit
		r.QueueWait += t.QueueWait
	}
	r.Total = r.Mine + r.RuleGen + r.Archive + r.Index + r.Commit
	return r
}

// String renders the report as a short multi-line operator summary.
func (r BuildReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "build: %d windows, %d rules (%d records), %d items, %d itemsets, %d EPS locations\n",
		r.Windows, r.Rules, r.Storage.Entries, r.Items, r.Itemsets, r.Locations)
	fmt.Fprintf(&b, "build: phases mine=%v rulegen=%v archive=%v index=%v commit=%v total=%v (parallelism %d, queue wait %v)\n",
		r.Mine.Round(time.Microsecond), r.RuleGen.Round(time.Microsecond),
		r.Archive.Round(time.Microsecond), r.Index.Round(time.Microsecond),
		r.Commit.Round(time.Microsecond), r.Total.Round(time.Microsecond),
		r.Parallelism, r.QueueWait.Round(time.Microsecond))
	fmt.Fprintf(&b, "build: archive %d B compressed / %d B raw (%.2fx)",
		r.Storage.Bytes, r.Storage.UncompressedBytes, r.Storage.CompressionRatio)
	return b.String()
}

// PerLevelString formats a per-level count slice like "1:14 2:40 3:12".
// Telemetry printers share it for candidate/frequent level breakdowns.
func PerLevelString(counts []int) string {
	if len(counts) == 0 {
		return "-"
	}
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = fmt.Sprintf("%d:%d", i+1, c)
	}
	return strings.Join(parts, " ")
}
