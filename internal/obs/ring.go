package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// SlowTrace is one captured slow request, as served by /debug/slow. Endpoint
// is the HTTP route the request arrived on; Class is the query class it
// decoded as (the textual-syntax op name, e.g. "about" for /content), so
// consumers filtering by workload class don't have to know the route table.
type SlowTrace struct {
	ID          string        `json:"id"`
	Endpoint    string        `json:"endpoint"`
	Class       string        `json:"class"`
	Status      int           `json:"status"`
	Start       time.Time     `json:"start"`
	TotalMicros float64       `json:"totalMicros"`
	Stages      []StageTiming `json:"stages"`
}

// SlowRing retains approximately the N slowest traces seen so far in a fixed
// array of atomic slots. Offer replaces the currently-cheapest slot when the
// candidate is slower; the scan-then-CAS is not globally atomic, so under
// heavy contention a near-minimum may survive a round — an accepted
// inaccuracy that buys a lock-free hot path. Slots only ever get slower
// entries (monotone per CAS), so the ring converges on the true top-N of a
// stable workload.
type SlowRing struct {
	slots []atomic.Pointer[SlowTrace]
}

// NewSlowRing returns a ring retaining n traces (min 1).
func NewSlowRing(n int) *SlowRing {
	if n < 1 {
		n = 1
	}
	return &SlowRing{slots: make([]atomic.Pointer[SlowTrace], n)}
}

// Offer considers t for retention. Nil traces are ignored.
func (r *SlowRing) Offer(t *SlowTrace) {
	if t == nil {
		return
	}
	// Find the cheapest slot (empty slots are cheapest of all).
	minIdx, minVal := -1, (*SlowTrace)(nil)
	for i := range r.slots {
		cur := r.slots[i].Load()
		if cur == nil {
			minIdx, minVal = i, nil
			break
		}
		if minVal == nil || cur.TotalMicros < minVal.TotalMicros {
			minIdx, minVal = i, cur
		}
	}
	if minVal != nil && t.TotalMicros <= minVal.TotalMicros {
		return
	}
	// Lost CAS means another goroutine just updated this slot; dropping the
	// candidate keeps Offer wait-free, and the competing entry was observed
	// at least as recently.
	r.slots[minIdx].CompareAndSwap(minVal, t)
}

// Snapshot returns the retained traces, slowest first.
func (r *SlowRing) Snapshot() []SlowTrace {
	out := make([]SlowTrace, 0, len(r.slots))
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, *t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMicros > out[j].TotalMicros })
	return out
}
