package tara

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tara/internal/kb"
	"tara/internal/rules"
)

// saveMapped serializes f in container format.
func saveMapped(t *testing.T, f *Framework) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.SaveMapped(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openMapped reopens a container image, closing it with the test.
func openMapped(t *testing.T, img []byte) *Framework {
	t.Helper()
	f, err := OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// sameViews fails unless two answer sets agree rule for rule.
func sameViews(t *testing.T, what string, a, b []RuleView) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d rules", what, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Stats != b[i].Stats || a[i].Rule.Key() != b[i].Rule.Key() {
			t.Fatalf("%s: rule %d differs: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

func TestSaveMappedOpenDifferential(t *testing.T) {
	db := testDB(1, 750, 30)
	windows, err := db.PartitionByCount(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	cfg.ContentIndex = true
	heap := New(db.Dict, cfg)
	for _, w := range windows[:4] {
		if err := heap.AppendWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	mapped := openMapped(t, saveMapped(t, heap))

	if got := mapped.LoadMode(); got != "bytes" {
		t.Errorf("LoadMode = %q, want bytes", got)
	}
	if mapped.Windows() != heap.Windows() {
		t.Fatalf("windows: %d vs %d", mapped.Windows(), heap.Windows())
	}
	if mapped.Generation() != uint64(heap.Windows()) {
		t.Errorf("generation = %d, want %d", mapped.Generation(), heap.Windows())
	}
	if mapped.RuleDict().Len() != heap.RuleDict().Len() {
		t.Fatalf("rules: %d vs %d", mapped.RuleDict().Len(), heap.RuleDict().Len())
	}
	hc, mc := heap.Config(), mapped.Config()
	if hc.GenMinSupport != mc.GenMinSupport || hc.GenMinConf != mc.GenMinConf ||
		hc.MaxItemsetLen != mc.MaxItemsetLen || hc.ContentIndex != mc.ContentIndex {
		t.Fatalf("config: %+v vs %+v", mc, hc)
	}
	for w := 0; w < heap.Windows(); w++ {
		hw, _ := heap.Window(w)
		mw, _ := mapped.Window(w)
		if hw != mw {
			t.Errorf("window %d: %+v vs %+v", w, mw, hw)
		}
	}

	cuts := []struct{ supp, conf float64 }{
		{0.01, 0.05}, {0.02, 0.1}, {0.05, 0.2}, {0.1, 0.5}, {0.3, 0.9},
	}
	for w := 0; w < heap.Windows(); w++ {
		for _, c := range cuts {
			hv, err := heap.Mine(w, c.supp, c.conf)
			if err != nil {
				t.Fatal(err)
			}
			mv, err := mapped.Mine(w, c.supp, c.conf)
			if err != nil {
				t.Fatal(err)
			}
			sameViews(t, fmt.Sprintf("mine w=%d cut=%v", w, c), hv, mv)

			hn, err := heap.Count(w, c.supp, c.conf)
			if err != nil {
				t.Fatal(err)
			}
			mn, err := mapped.Count(w, c.supp, c.conf)
			if err != nil {
				t.Fatal(err)
			}
			if hn != mn {
				t.Fatalf("count w=%d cut=%v: %d vs %d", w, c, mn, hn)
			}
		}
	}

	// Content query (Q5) through the lazily built per-region item index.
	views, err := heap.Mine(0, 0.05, 0.2)
	if err != nil || len(views) == 0 {
		t.Fatalf("mine: %d views, err %v", len(views), err)
	}
	name := heap.ItemDict().Name(views[0].Rule.Items()[0])
	ha, err := heap.RulesAbout(0, 0.05, 0.2, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	ma, err := mapped.RulesAbout(0, 0.05, 0.2, []string{name})
	if err != nil {
		t.Fatal(err)
	}
	sameViews(t, "about", ha, ma)

	// Trajectory (Q3) decodes archive payloads straight off the container.
	ht, err := heap.Trajectory(views[0].ID, 0, heap.Windows()-1)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := mapped.Trajectory(views[0].ID, 0, mapped.Windows()-1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ht.Entries) != len(mt.Entries) {
		t.Fatalf("trajectory: %d vs %d entries", len(mt.Entries), len(ht.Entries))
	}
	for i := range ht.Entries {
		if ht.Entries[i] != mt.Entries[i] {
			t.Fatalf("trajectory entry %d: %+v vs %+v", i, mt.Entries[i], ht.Entries[i])
		}
	}

	// Roll-up (Q4) merges counts across windows.
	hr, err := heap.MineRollUp(0, heap.Windows()-1, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := mapped.MineRollUp(0, mapped.Windows()-1, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hr) != len(mr) {
		t.Fatalf("rollup: %d vs %d rules", len(mr), len(hr))
	}
	for i := range hr {
		if hr[i].ID != mr[i].ID || hr[i].Stats != mr[i].Stats {
			t.Fatalf("rollup rule %d differs", i)
		}
	}

	// Evolution diff (Q2).
	hd, err := heap.Compare([]int{0, 1, 2}, 0.05, 0.2, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	md, err := mapped.Compare([]int{0, 1, 2}, 0.05, 0.2, 0.02, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hd) != len(md) {
		t.Fatalf("compare: %d vs %d windows", len(md), len(hd))
	}
	for i := range hd {
		if len(hd[i].OnlyA) != len(md[i].OnlyA) || len(hd[i].OnlyB) != len(md[i].OnlyB) {
			t.Fatalf("compare window %d differs", i)
		}
		for j := range hd[i].OnlyA {
			if hd[i].OnlyA[j] != md[i].OnlyA[j] {
				t.Fatalf("compare window %d OnlyA[%d] differs", i, j)
			}
		}
	}

	// The strongest equivalence check: once one more window has promoted the
	// mapped framework, its archive and rule dictionary are re-encoded from
	// heap copies rather than passed through, and both frameworks still emit
	// byte-identical containers — every bit of knowledge-base state
	// round-tripped.
	for _, f := range []*Framework{heap, mapped} {
		if err := f.AppendWindow(windows[4]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveMapped(t, heap), saveMapped(t, mapped)) {
		t.Fatal("SaveMapped bytes differ between heap and promoted mapped frameworks")
	}
}

func TestMappedFrameworkExtendable(t *testing.T) {
	db := testDB(12, 600, 25)
	windows, err := db.PartitionByCount(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultCfg()
	cfg.ContentIndex = true
	heap := New(db.Dict, cfg)
	for _, w := range windows[:3] {
		if err := heap.AppendWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	mapped := openMapped(t, saveMapped(t, heap))

	// Appending promotes the mapped archive to heap copies and forces the
	// lazy rule dictionary; both frameworks then agree byte for byte.
	for _, f := range []*Framework{heap, mapped} {
		if err := f.AppendWindow(windows[3]); err != nil {
			t.Fatal(err)
		}
	}
	if mapped.Windows() != 4 {
		t.Fatalf("windows = %d", mapped.Windows())
	}
	hv, err := heap.Mine(3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := mapped.Mine(3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sameViews(t, "mine after append", hv, mv)

	if !bytes.Equal(saveMapped(t, heap), saveMapped(t, mapped)) {
		t.Fatal("SaveMapped bytes differ after appending to a mapped framework")
	}
}

func TestSaveMappedDeterministic(t *testing.T) {
	f := build(t, defaultCfg())
	if !bytes.Equal(saveMapped(t, f), saveMapped(t, f)) {
		t.Error("SaveMapped output not deterministic")
	}
}

// TestSaveDeterministic: saving a reopened knowledge base reproduces the
// file it was opened from.
func TestSaveDeterministic(t *testing.T) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	img := saveMapped(t, build(t, cfg))
	if !bytes.Equal(img, saveMapped(t, openMapped(t, img))) {
		t.Error("re-saving a reopened knowledge base changed its bytes")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	orig := build(t, cfg)
	loaded := openMapped(t, saveMapped(t, orig))

	if loaded.Windows() != orig.Windows() {
		t.Fatalf("windows: %d vs %d", loaded.Windows(), orig.Windows())
	}
	if loaded.RuleDict().Len() != orig.RuleDict().Len() {
		t.Fatalf("rules: %d vs %d", loaded.RuleDict().Len(), orig.RuleDict().Len())
	}
	if loaded.ItemDict().Len() != orig.ItemDict().Len() {
		t.Fatalf("items: %d vs %d", loaded.ItemDict().Len(), orig.ItemDict().Len())
	}
	lc, oc := loaded.Config(), orig.Config()
	if lc.GenMinSupport != oc.GenMinSupport || lc.GenMinConf != oc.GenMinConf ||
		lc.MaxItemsetLen != oc.MaxItemsetLen || lc.ContentIndex != oc.ContentIndex {
		t.Fatalf("config: %+v vs %+v", lc, oc)
	}

	// Window metadata round trips.
	for w := 0; w < orig.Windows(); w++ {
		ow, _ := orig.Window(w)
		lw, _ := loaded.Window(w)
		if ow != lw {
			t.Errorf("window %d: %+v vs %+v", w, lw, ow)
		}
	}

	// Every query answers identically on the loaded framework.
	for w := 0; w < orig.Windows(); w++ {
		a, err := orig.Mine(w, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Mine(w, 0.05, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("window %d: %d vs %d rules", w, len(a), len(b))
		}
		bk := map[string]rules.Stats{}
		for _, v := range b {
			bk[v.Rule.Key()] = v.Stats
		}
		for _, v := range a {
			if st, ok := bk[v.Rule.Key()]; !ok || st != v.Stats {
				t.Fatalf("window %d: rule %v differs after reload", w, v.Rule)
			}
		}
	}

	// Rule names survive (dictionary order preserved).
	views, err := loaded.Mine(0, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	origViews, _ := orig.Mine(0, 0.05, 0.2)
	if views[0].Rule.Format(loaded.ItemDict()) != origViews[0].Rule.Format(orig.ItemDict()) {
		t.Error("item names differ after reload")
	}

	// Content-indexed query works on the reloaded knowledge base.
	name := loaded.ItemDict().Name(views[0].Rule.Items()[0])
	if _, err := loaded.RulesAbout(0, 0.05, 0.2, []string{name}); err != nil {
		t.Errorf("RulesAbout after reload: %v", err)
	}

	// Roll-up also answers identically.
	ra, err := orig.MineRollUp(0, 3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loaded.MineRollUp(0, 3, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("roll-up: %d vs %d rules", len(ra), len(rb))
	}
}

func TestLoadedFrameworkExtendable(t *testing.T) {
	// AppendWindow after reopening continues the stream.
	db := testDB(12, 600, 25)
	windows, err := db.PartitionByCount(4)
	if err != nil {
		t.Fatal(err)
	}
	f := New(db.Dict, defaultCfg())
	for _, w := range windows[:3] {
		if err := f.AppendWindow(w); err != nil {
			t.Fatal(err)
		}
	}
	loaded := openMapped(t, saveMapped(t, f))
	// Item ids in windows[3] refer to db.Dict; the saved dict preserved id
	// order, so appending is valid.
	if err := loaded.AppendWindow(windows[3]); err != nil {
		t.Fatal(err)
	}
	if loaded.Windows() != 4 {
		t.Fatalf("windows = %d", loaded.Windows())
	}
	if _, err := loaded.Mine(3, 0.05, 0.2); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := OpenBytes(nil); err == nil {
		t.Error("empty image accepted")
	}
	if _, err := OpenBytes([]byte("GARBAGE!")); err == nil {
		t.Error("bad magic accepted")
	}
	img := saveMapped(t, build(t, defaultCfg()))
	trunc := img[: len(img)/2 : len(img)/2]
	if _, err := OpenBytes(trunc); err == nil {
		t.Error("truncated image accepted")
	}
}

// TestOpenRejectsTARAKB1: a knowledge base in the removed TARAKB1 stream
// format is refused by both entry points with the instruction to rebuild it,
// while a TARAKB2 file opens mapped.
func TestOpenRejectsTARAKB1(t *testing.T) {
	dir := t.TempDir()
	// A TARAKB1 stream opened with its magic and two float64 thresholds.
	old := append([]byte("TARAKB1\n"), make([]byte, 24)...)
	oldPath := filepath.Join(dir, "old.kb")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, openErr := Open(oldPath)
	_, bytesErr := OpenBytes(old)
	for name, err := range map[string]error{"Open": openErr, "OpenBytes": bytesErr} {
		if err == nil || !strings.Contains(err.Error(), "TARAKB1") || !strings.Contains(err.Error(), "tara -load") {
			t.Errorf("%s of a TARAKB1 file: err = %v, want the rebuild instruction", name, err)
		}
	}

	f := build(t, defaultCfg())
	mappedPath := filepath.Join(dir, "mapped.kb")
	if err := os.WriteFile(mappedPath, saveMapped(t, f), 0o644); err != nil {
		t.Fatal(err)
	}
	mf, err := Open(mappedPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	if m := mf.LoadMode(); m != "mmap" && m != "readerat" {
		t.Errorf("mapped LoadMode = %q, want mmap or readerat", m)
	}
	hv, err := f.Mine(0, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := mf.Mine(0, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sameViews(t, "mine via Open", hv, mv)

	if _, err := Open(filepath.Join(dir, "missing.kb")); err == nil {
		t.Error("Open of missing file succeeded")
	}
	junk := filepath.Join(dir, "junk.kb")
	if err := os.WriteFile(junk, []byte("not a knowledge base at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(junk); err == nil {
		t.Error("Open of junk file succeeded")
	}
}

func TestOpenBytesRejectsCorrupt(t *testing.T) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	img := saveMapped(t, build(t, cfg))

	// Truncations anywhere must fail cleanly — the container magic survives
	// in prefixes past 8 bytes, so every layer's bounds checks get exercised.
	for _, n := range []int{0, 4, 8, 12, 16, 40, 100, len(img) / 4, len(img) / 2, len(img) - 100, len(img) - 1} {
		if n < 0 || n >= len(img) {
			continue
		}
		if f, err := OpenBytes(img[:n:n]); err == nil {
			f.Close()
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}

	// A header section offset pointing past the file must be rejected.
	bad := append([]byte(nil), img...)
	// First table entry's offset field lives at byte 16+8.
	for i := 24; i < 32; i++ {
		bad[i] = 0xff
	}
	if f, err := OpenBytes(bad); err == nil {
		f.Close()
		t.Error("bad section offset accepted")
	}

	// Wrong container version.
	bad = append([]byte(nil), img...)
	bad[8] = 99
	if f, err := OpenBytes(bad); err == nil {
		f.Close()
		t.Error("bad version accepted")
	}

	// Flipping a byte inside the rule-key fence table must be caught at
	// open (fences must ascend and cover the blob).
	kf, err := kb.OpenBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := kf.Section(kb.SectionID(3))
	if err != nil {
		t.Fatal(err)
	}
	// Find the section's offset in the image to corrupt it in place.
	off := bytes.Index(img, sec[:16])
	if off < 0 {
		t.Fatal("rulekeys section not found in image")
	}
	bad = append([]byte(nil), img...)
	bad[off+6] = 0xff // high byte of the first fence offset
	if f, err := OpenBytes(bad); err == nil {
		f.Close()
		t.Error("corrupt rule-key fences accepted")
	}
}

// TestOpenBytesTruncationSweep drags a truncation point across the whole
// image with a small stride: no prefix may be accepted or panic.
func TestOpenBytesTruncationSweep(t *testing.T) {
	img := saveMapped(t, build(t, defaultCfg()))
	for n := 0; n < len(img); n += 7 {
		if f, err := OpenBytes(img[:n:n]); err == nil {
			f.Close()
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(img))
		}
	}
}

func FuzzOpenMapped(f *testing.F) {
	cfg := defaultCfg()
	cfg.ContentIndex = true
	db := testDB(3, 200, 15)
	fw, err := Build(db, 0, 2, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fw.SaveMapped(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add([]byte(kb.Magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := OpenBytes(data)
		if err != nil {
			return
		}
		defer fr.Close()
		// Anything that opens must answer queries without panicking: the
		// validation at open is the only gate before the trusting hot paths.
		for w := 0; w < fr.Windows(); w++ {
			views, err := fr.Mine(w, fr.Config().GenMinSupport, fr.Config().GenMinConf)
			if err != nil {
				continue
			}
			if _, err := fr.Count(w, 0.05, 0.2); err != nil {
				t.Fatalf("count after successful mine: %v", err)
			}
			if len(views) > 0 {
				fr.Trajectory(views[0].ID, 0, fr.Windows()-1)
			}
		}
		fr.Summarize()
	})
}

func TestMappedSummarize(t *testing.T) {
	heap := build(t, defaultCfg())
	mapped := openMapped(t, saveMapped(t, heap))
	hs, ms := heap.Summarize(), mapped.Summarize()
	if hs.Windows != ms.Windows || hs.Rules != ms.Rules || hs.Items != ms.Items ||
		hs.ArchiveEntries != ms.ArchiveEntries {
		t.Fatalf("summary differs: %+v vs %+v", ms, hs)
	}
	for i := range hs.PerWindow {
		if hs.PerWindow[i] != ms.PerWindow[i] {
			t.Fatalf("window summary %d: %+v vs %+v", i, ms.PerWindow[i], hs.PerWindow[i])
		}
	}
}

func TestRuleDictLookupOnMapped(t *testing.T) {
	heap := build(t, defaultCfg())
	mapped := openMapped(t, saveMapped(t, heap))
	// Lookup forces the lazy dictionary; ids must match the heap ones.
	views, err := heap.Mine(0, 0.05, 0.2)
	if err != nil || len(views) == 0 {
		t.Fatalf("mine: %d views, err %v", len(views), err)
	}
	for _, v := range views {
		id, ok := mapped.RuleDict().Lookup(v.Rule)
		if !ok || id != v.ID {
			t.Fatalf("lookup %v: got (%d,%v), want %d", v.Rule, id, ok, v.ID)
		}
	}
	if mapped.RuleDict().Len() != heap.RuleDict().Len() {
		t.Fatalf("len after force: %d vs %d", mapped.RuleDict().Len(), heap.RuleDict().Len())
	}
	var id rules.ID = rules.ID(mapped.RuleDict().Len())
	if _, ok := mapped.RuleDict().Rule(id); ok {
		t.Error("out-of-range id resolved")
	}
}
