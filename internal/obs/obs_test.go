package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestBucketEdges pins the histogram's bucket assignment: bucket i covers
// (2^(i-1), 2^i] microseconds with bucket 0 = [0,1], so exact powers of two
// file into the bucket whose bound names them — the off-by-one the old
// bits.Len64(us) indexing got wrong (it pushed 2^k into bucket k+1, making
// quantile bounds up to 2x loose, and split 0µs and 1µs into different
// buckets).
func TestBucketEdges(t *testing.T) {
	cases := []struct {
		us   uint64
		want int
	}{
		{0, 0}, {1, 0}, // sub-microsecond and 1µs share bucket 0
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {7, 3}, {8, 3},
		{9, 4}, {15, 4}, {16, 4},
		{17, 5},
		{1023, 10}, {1024, 10}, {1025, 11},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << 29, 29},
		{1<<29 + 1, 29},     // clamped into the last bucket
		{1 << 40, 29},       // far overflow clamps too
		{^uint64(0), 29},    // max value
		{1<<28 + 1, 29},     // first value past bucket 28's bound
		{1 << 28, 28},       // exactly on bucket 28's bound
		{(1 << 28) - 1, 28}, // inside bucket 28
	}
	for _, c := range cases {
		if got := bucketFor(c.us); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.us, got, c.want)
		}
	}
	// Every bucket's bound is an inclusive upper edge: observing exactly
	// BucketBound(i) must land in bucket i, and one more must not.
	for i := 0; i < NumBuckets; i++ {
		if got := bucketFor(BucketBound(i)); got != i {
			t.Errorf("bucketFor(BucketBound(%d)=%d) = %d, want %d", i, BucketBound(i), got, i)
		}
		if i+1 < NumBuckets {
			if got := bucketFor(BucketBound(i) + 1); got != i+1 {
				t.Errorf("bucketFor(%d) = %d, want %d", BucketBound(i)+1, got, i+1)
			}
		}
	}
}

// TestQuantileUpperBounds is the table-driven quantile contract: for any
// observed set, Quantile(q) is an inclusive upper bound on the true
// q-quantile, equal to the bound of the bucket holding it.
func TestQuantileUpperBounds(t *testing.T) {
	cases := []struct {
		name    string
		obs     []uint64
		q       float64
		want    uint64
		trueQ   uint64 // the exact quantile value, to assert want >= trueQ
		comment string
	}{
		{"empty", nil, 0.5, 0, 0, "empty histogram answers 0"},
		{"single-zero", []uint64{0}, 0.5, 1, 0, "bucket 0 bound is 1µs"},
		{"single-one", []uint64{1}, 0.99, 1, 1, "1µs is bucket 0's edge"},
		{"exact-power", []uint64{1024}, 0.5, 1024, 1024, "power of two reports itself, not 2047"},
		{"mixed-p50", []uint64{1, 2, 3, 100, 200}, 0.5, 4, 3, "median 3 rounds up to bucket edge 4"},
		{"mixed-p95", []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 900}, 0.95, 1024, 900, "tail lands in (512,1024]"},
		{"all-same", []uint64{7, 7, 7, 7}, 0.99, 8, 7, "uniform values share bucket (4,8]"},
		{"overflow", []uint64{1 << 40}, 0.5, 1 << 29, 1 << 40, "clamped tail reports the last bound"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var h Hist
			for _, us := range c.obs {
				h.ObserveMicros(us)
			}
			got := h.Snapshot().Quantile(c.q)
			if got != c.want {
				t.Errorf("Quantile(%g) = %d, want %d (%s)", c.q, got, c.want, c.comment)
			}
			// The bound property (except the clamped-overflow bucket, whose
			// bound is by construction a floor on huge values).
			if c.trueQ <= BucketBound(NumBuckets-1) && got < c.trueQ {
				t.Errorf("Quantile(%g) = %d below true quantile %d", c.q, got, c.trueQ)
			}
		})
	}
}

func TestQuantileMonotone(t *testing.T) {
	var h Hist
	for us := uint64(0); us < 5000; us += 13 {
		h.ObserveMicros(us)
	}
	qs := []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1.0}
	prev := uint64(0)
	for _, q := range qs {
		v := h.Snapshot().Quantile(q)
		if v < prev {
			t.Errorf("Quantile(%g) = %d < previous %d", q, v, prev)
		}
		prev = v
	}
}

// TestHistSnapshotConsistent checks the count-then-buckets snapshot order:
// under concurrent observation, sum(Buckets) >= Count in every snapshot.
func TestHistSnapshotConsistent(t *testing.T) {
	var h Hist
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			us := uint64(g)
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveMicros(us % 4096)
					us += 7
				}
			}
		}(g)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	var lastCount uint64
	for time.Now().Before(deadline) {
		s := h.Snapshot()
		var sum uint64
		for _, b := range s.Buckets {
			sum += b
		}
		if sum < s.Count {
			t.Fatalf("snapshot tore: bucket sum %d < count %d", sum, s.Count)
		}
		if s.Count < lastCount {
			t.Fatalf("count went backwards: %d -> %d", lastCount, s.Count)
		}
		lastCount = s.Count
	}
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	var sum uint64
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count {
		t.Fatalf("quiescent mismatch: bucket sum %d != count %d", sum, s.Count)
	}
}

func TestTraceStagesAndNilSafety(t *testing.T) {
	var nilTr *Trace
	sp := nilTr.Start(StageDecode)
	sp.End() // must not panic
	nilTr.Add(StageCut, time.Millisecond)
	nilTr.Finish()
	if nilTr.ID() != "" || nilTr.Total() != 0 || nilTr.Stages() != nil {
		t.Fatal("nil trace leaked state")
	}

	tr := NewTrace("req-1")
	if tr.ID() != "req-1" {
		t.Fatalf("ID = %q", tr.ID())
	}
	tr.Add(StageDecode, 5*time.Microsecond)
	tr.Add(StageEPSLookup, 10*time.Microsecond)
	tr.Add(StageEPSLookup, 10*time.Microsecond) // accumulates
	tr.Finish()
	st := tr.Stages()
	if len(st) != 2 {
		t.Fatalf("Stages = %v, want 2 entries", st)
	}
	if st[0].Stage != "decode" || st[1].Stage != "eps-lookup" {
		t.Fatalf("stage order/names wrong: %v", st)
	}
	if st[1].Micros != 20 {
		t.Fatalf("eps-lookup = %vµs, want 20", st[1].Micros)
	}
	if tr.StageDur(StageCacheProbe) != 0 {
		t.Fatal("unrecorded stage nonzero")
	}
	if tr.Total() <= 0 {
		t.Fatal("finished total not positive")
	}
}

func TestTraceContext(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context produced a trace")
	}
	tr := NewTrace("")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if tr.ID() == "" {
		t.Fatal("NewTrace(\"\") did not mint an id")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestSlowRingKeepsSlowest(t *testing.T) {
	r := NewSlowRing(4)
	for i := 1; i <= 10; i++ {
		r.Offer(&SlowTrace{ID: fmt.Sprintf("t%d", i), TotalMicros: float64(i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d traces, want 4", len(got))
	}
	for i, st := range got {
		want := float64(10 - i)
		if st.TotalMicros != want {
			t.Errorf("slot %d = %v µs, want %v (snapshot %v)", i, st.TotalMicros, want, got)
		}
	}
	// A candidate cheaper than everything retained is rejected.
	r.Offer(&SlowTrace{ID: "cheap", TotalMicros: 1})
	for _, st := range r.Snapshot() {
		if st.ID == "cheap" {
			t.Fatal("ring admitted a trace cheaper than its minimum")
		}
	}
}

func TestSlowRingConcurrent(t *testing.T) {
	r := NewSlowRing(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Offer(&SlowTrace{ID: fmt.Sprintf("g%d-%d", g, i), TotalMicros: float64(i)})
			}
		}(g)
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) == 0 || len(got) > 8 {
		t.Fatalf("snapshot size %d out of bounds", len(got))
	}
	// Best-effort top-N: everything retained should at least be from the
	// expensive end of the offered range.
	for _, st := range got {
		if st.TotalMicros < 400 {
			t.Errorf("retained cheap trace %v", st)
		}
	}
}
