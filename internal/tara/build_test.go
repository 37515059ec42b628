package tara

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tara/internal/mining"
	"tara/internal/txdb"
)

// buildAt builds the same seeded database at the given parallelism with the
// content index on (the configuration whose serialized form covers every
// order-sensitive structure: dictionary, archive, window metadata).
func buildAt(t *testing.T, parallelism int) *Framework {
	t.Helper()
	db := testDB(31, 1600, 40)
	cfg := Config{
		GenMinSupport: 0.01,
		GenMinConf:    0.05,
		MaxItemsetLen: 4,
		ContentIndex:  true,
		Parallelism:   parallelism,
	}
	f, err := Build(db, 0, 8, cfg)
	if err != nil {
		t.Fatalf("Build(parallelism=%d): %v", parallelism, err)
	}
	return f
}

// TestParallelBuildByteIdentical is the differential proof behind the
// pipeline's determinism contract: the serialized knowledge base of every
// parallel build must equal the serial build's byte for byte, and each
// window's EPS cut locations must be identical.
func TestParallelBuildByteIdentical(t *testing.T) {
	serial := buildAt(t, 1)
	var want bytes.Buffer
	if err := serial.SaveMapped(&want); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		f := buildAt(t, p)
		var got bytes.Buffer
		if err := f.SaveMapped(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("parallelism %d: serialized KB differs from serial (%d vs %d bytes)",
				p, got.Len(), want.Len())
		}
		if f.Windows() != serial.Windows() {
			t.Fatalf("parallelism %d: %d windows, serial built %d", p, f.Windows(), serial.Windows())
		}
		for w := 0; w < serial.Windows(); w++ {
			ss, err := serial.Index().Slice(w)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := f.Index().Slice(w)
			if err != nil {
				t.Fatal(err)
			}
			if !equalFloats(ss.SupportCuts(), ps.SupportCuts()) ||
				!equalFloats(ss.ConfidenceCuts(), ps.ConfidenceCuts()) {
				t.Errorf("parallelism %d window %d: EPS cuts differ from serial", p, w)
			}
			if ss.NumLocations() != ps.NumLocations() {
				t.Errorf("parallelism %d window %d: %d EPS locations, serial has %d",
					p, w, ps.NumLocations(), ss.NumLocations())
			}
		}
		ctr := f.BuildCounters()
		if ctr["build_windows"] != int64(serial.Windows()) {
			t.Errorf("parallelism %d: build_windows counter = %d, want %d",
				p, ctr["build_windows"], serial.Windows())
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// waitGoroutines fails the test if the goroutine count does not settle back
// to (roughly) its pre-build baseline — i.e. the pipeline leaked a stage.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestParallelBuildMinerFailureNoLeak checks the pipeline's error path: a
// failure in one window's miner surfaces as Build's error, the other stages
// unwind, and no goroutine outlives the call.
func TestParallelBuildMinerFailureNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	db := testDB(32, 800, 20)
	cfg := defaultCfg()
	cfg.Miner = newFailingMiner(2)
	cfg.Parallelism = 4
	if _, err := Build(db, 0, 8, cfg); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("Build error = %v, want injected failure", err)
	}
	waitGoroutines(t, base)
}

// cancelingMiner cancels the build's parent context partway through and then
// keeps mining normally, modelling an external shutdown racing the pipeline.
type cancelingMiner struct {
	after  atomic.Int64
	cancel context.CancelFunc
}

func (m *cancelingMiner) Name() string { return "canceling" }

func (m *cancelingMiner) Mine(tx []txdb.Transaction, p mining.Params) (*mining.Result, error) {
	if m.after.Add(-1) == 0 {
		m.cancel()
	}
	return mining.Eclat{}.Mine(tx, p)
}

// TestParallelBuildCancellation checks both cancellation paths: a context
// cancelled before the build starts, and one cancelled while the pipeline is
// mid-flight. Both must return the context error and leak nothing.
func TestParallelBuildCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	db := testDB(33, 800, 20)
	cfg := defaultCfg()
	cfg.Parallelism = 4

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(pre, db, 0, 8, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BuildContext error = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cm := &cancelingMiner{cancel: cancel}
	cm.after.Store(3)
	cfg.Miner = cm
	if _, err := BuildContext(ctx, db, 0, 8, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build BuildContext error = %v, want context.Canceled", err)
	}
	waitGoroutines(t, base)
}
