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

// buildCfg is the build configuration whose serialized form covers every
// order-sensitive structure (dictionary, archive, window metadata): the
// content index is on.
func buildCfg(parallelism int) Config {
	return Config{
		GenMinSupport: 0.01,
		GenMinConf:    0.05,
		MaxItemsetLen: 4,
		ContentIndex:  true,
		Parallelism:   parallelism,
	}
}

// referenceBuild is the pipeline's independent reference: each window is
// mined and then appended as premined rules, strictly one after another.
func referenceBuild(t *testing.T, db *txdb.DB) *Framework {
	t.Helper()
	ws, err := db.PartitionByCount(8)
	if err != nil {
		t.Fatal(err)
	}
	f := New(db.Dict, buildCfg(1))
	for _, w := range ws {
		m, err := f.mineWindow(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AppendRules(w, m.ruleSet); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestParallelBuildByteIdentical is the differential proof behind the
// pipeline's determinism contract: the serialized knowledge base of every
// pipelined build must equal the window-by-window reference build's byte for
// byte, and each window's EPS cut locations must be identical.
func TestParallelBuildByteIdentical(t *testing.T) {
	ref := referenceBuild(t, testDB(31, 1600, 40))
	var want bytes.Buffer
	if err := ref.SaveMapped(&want); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8} {
		f, err := Build(testDB(31, 1600, 40), 0, 8, buildCfg(p))
		if err != nil {
			t.Fatalf("Build(parallelism=%d): %v", p, err)
		}
		var got bytes.Buffer
		if err := f.SaveMapped(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("parallelism %d: serialized KB differs from reference (%d vs %d bytes)",
				p, got.Len(), want.Len())
		}
		if f.Windows() != ref.Windows() {
			t.Fatalf("parallelism %d: %d windows, reference built %d", p, f.Windows(), ref.Windows())
		}
		for w := 0; w < ref.Windows(); w++ {
			rs, err := ref.Index().Slice(w)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := f.Index().Slice(w)
			if err != nil {
				t.Fatal(err)
			}
			if !equalFloats(rs.SupportCuts(), ps.SupportCuts()) ||
				!equalFloats(rs.ConfidenceCuts(), ps.ConfidenceCuts()) {
				t.Errorf("parallelism %d window %d: EPS cuts differ from reference", p, w)
			}
			if rs.NumLocations() != ps.NumLocations() {
				t.Errorf("parallelism %d window %d: %d EPS locations, reference has %d",
					p, w, ps.NumLocations(), rs.NumLocations())
			}
		}
		ctr := f.BuildCounters()
		if ctr["build_windows"] != int64(ref.Windows()) {
			t.Errorf("parallelism %d: build_windows counter = %d, want %d",
				p, ctr["build_windows"], ref.Windows())
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
