package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Hist is a lock-free latency histogram over power-of-two microsecond
// buckets. Bucket i covers (2^(i-1), 2^i] microseconds, with bucket 0
// covering [0, 1]; BucketBound(i) = 2^i is each bucket's inclusive upper
// edge, so exact powers of two land in the bucket whose bound names them and
// every quantile answer is a true upper bound at power-of-two resolution.
//
// All fields are atomics: observation never contends with snapshotting, and
// the write order (buckets, then count, then sum) pairs with the snapshot
// read order (count, then sum, then buckets) to guarantee that any snapshot
// sees sum(Buckets) >= Count — concurrent readers get internally consistent,
// slightly stale views rather than torn ones.
type Hist struct {
	count   atomic.Uint64
	sumUS   atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// NumBuckets spans [0,1]µs through 2^29µs (~9 minutes); larger observations
// clamp into the last bucket.
const NumBuckets = 30

// BucketBound returns bucket i's inclusive upper edge in microseconds: 2^i.
func BucketBound(i int) uint64 { return uint64(1) << i }

// bucketFor files us microseconds into its bucket index.
func bucketFor(us uint64) int {
	if us <= 1 {
		return 0
	}
	i := bits.Len64(us - 1) // (2^(k-1), 2^k] -> k
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Hist) Observe(d time.Duration) {
	h.ObserveMicros(uint64(d.Microseconds()))
}

// ObserveMicros records one latency given in microseconds.
func (h *Hist) ObserveMicros(us uint64) {
	h.buckets[bucketFor(us)].Add(1)
	h.count.Add(1)
	h.sumUS.Add(us)
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count.Load() }

// SumMicros returns the sum of observed microseconds.
func (h *Hist) SumMicros() uint64 { return h.sumUS.Load() }

// HistSnapshot is a point-in-time copy of a Hist, used by the Prometheus
// renderer. Loaded count-first, so sum(Buckets) >= Count always holds.
type HistSnapshot struct {
	Count     uint64
	SumMicros uint64
	Buckets   [NumBuckets]uint64
}

// Snapshot copies the histogram's counters.
func (h *Hist) Snapshot() HistSnapshot {
	var s HistSnapshot
	s.Count = h.count.Load()
	s.SumMicros = h.sumUS.Load()
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns an inclusive upper bound (in microseconds) on the
// q-quantile of the snapshot's observations, at power-of-two resolution: the
// bound of the first bucket whose cumulative count reaches ⌈q·Count⌉.
// Returns 0 when the snapshot is empty. Quantiles taken from one snapshot
// are monotone in q even while the histogram is being observed into.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return BucketBound(i)
		}
	}
	return BucketBound(NumBuckets - 1)
}
