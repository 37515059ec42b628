package archive

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"tara/internal/rules"
)

func buildRandomArchive(seed int64, windows, rulesN int) *Archive {
	r := rand.New(rand.NewSource(seed))
	a := New()
	for w := 0; w < windows; w++ {
		a.BeginWindow(uint32(50 + r.Intn(200)))
		for id := 0; id < rulesN; id++ {
			if r.Intn(3) == 0 {
				continue
			}
			xy := uint32(r.Intn(1000))
			a.Append(rules.ID(id), xy, xy+uint32(r.Intn(100)), uint32(r.Intn(1000)))
		}
	}
	return a
}

func openMappedCopy(t *testing.T, a *Archive) *Archive {
	t.Helper()
	m, err := OpenMapped(a.AppendMapped(nil))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameArchive compares two archives through their full query surface.
func sameArchive(t *testing.T, want, got *Archive) {
	t.Helper()
	if want.Windows() != got.Windows() {
		t.Fatalf("windows: %d vs %d", got.Windows(), want.Windows())
	}
	for w := 0; w < want.Windows(); w++ {
		wn, _ := want.WindowN(w)
		gn, _ := got.WindowN(w)
		if wn != gn {
			t.Fatalf("window %d: N %d vs %d", w, gn, wn)
		}
	}
	if want.SizeBytes() != got.SizeBytes() {
		t.Fatalf("size: %d vs %d bytes", got.SizeBytes(), want.SizeBytes())
	}
	if want.NumEntries() != got.NumEntries() {
		t.Fatalf("entries: %d vs %d", got.NumEntries(), want.NumEntries())
	}
	if want.NumRules() != got.NumRules() {
		t.Fatalf("rules: %d vs %d", got.NumRules(), want.NumRules())
	}
	wr, gr := want.Rules(), got.Rules()
	if len(wr) != len(gr) {
		t.Fatalf("rule lists: %d vs %d", len(gr), len(wr))
	}
	sortIDs(wr)
	sortIDs(gr)
	for i := range wr {
		if wr[i] != gr[i] {
			t.Fatalf("rule %d: %d vs %d", i, gr[i], wr[i])
		}
		ws, gs := want.Series(wr[i]), got.Series(gr[i])
		if len(ws) != len(gs) {
			t.Fatalf("rule %d series: %d vs %d entries", wr[i], len(gs), len(ws))
		}
		for j := range ws {
			if ws[j] != gs[j] {
				t.Fatalf("rule %d entry %d: %+v vs %+v", wr[i], j, gs[j], ws[j])
			}
		}
	}
}

func TestOpenMappedRoundTrip(t *testing.T) {
	a := buildRandomArchive(7, 10, 50)
	m := openMappedCopy(t, a)
	if !m.Mapped() {
		t.Fatal("opened archive not mapped")
	}
	sameArchive(t, a, m)
}

func TestArchiveWriteReadRoundTrip(t *testing.T) {
	a := buildRandomArchive(1, 12, 40)
	b := openMappedCopy(t, a)
	if b.Windows() != a.Windows() || b.NumEntries() != a.NumEntries() {
		t.Fatalf("shape: %d/%d vs %d/%d", b.Windows(), b.NumEntries(), a.Windows(), a.NumEntries())
	}
	for _, id := range a.Rules() {
		as, bs := a.Series(id), b.Series(id)
		if len(as) != len(bs) {
			t.Fatalf("rule %d: %d vs %d entries", id, len(bs), len(as))
		}
		for i := range as {
			if as[i] != bs[i] {
				t.Fatalf("rule %d entry %d: %+v vs %+v", id, i, bs[i], as[i])
			}
		}
	}
}

func TestPropertyArchivePersistRoundTrip(t *testing.T) {
	for seed := int64(10); seed < 20; seed++ {
		a := buildRandomArchive(seed, 1+int(seed%7), 1+int(seed%13))
		b, err := OpenMapped(a.AppendMapped(nil))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if b.SizeBytes() != a.SizeBytes() {
			t.Errorf("seed %d: size %d vs %d", seed, b.SizeBytes(), a.SizeBytes())
		}
		for w := 0; w < a.Windows(); w++ {
			an, _ := a.WindowN(w)
			bn, _ := b.WindowN(w)
			if an != bn {
				t.Errorf("seed %d window %d: N %d vs %d", seed, w, bn, an)
			}
		}
	}
}

func TestArchiveSaveDeterministic(t *testing.T) {
	a := buildRandomArchive(3, 6, 20)
	if !bytes.Equal(a.AppendMapped(nil), a.AppendMapped(nil)) {
		t.Error("AppendMapped not deterministic")
	}
}

// TestMappedWriteToByteIdentical: a mapped archive whose payloads were
// decoded into heap copies re-encodes to exactly the bytes of the heap
// archive it was saved from.
func TestMappedWriteToByteIdentical(t *testing.T) {
	a := buildRandomArchive(3, 8, 30)
	m := openMappedCopy(t, a)
	if err := m.Promote(); err != nil {
		t.Fatal(err)
	}
	if m.Mapped() {
		t.Fatal("archive still mapped after Promote")
	}
	if !bytes.Equal(a.AppendMapped(nil), m.AppendMapped(nil)) {
		t.Fatal("promoted mapped archive encodes differently from its heap original")
	}
}

func TestMappedAppendPromotes(t *testing.T) {
	a := buildRandomArchive(5, 6, 25)
	m := openMappedCopy(t, a)

	// Appending a window transparently promotes the mapped payloads to heap
	// copies; both archives must then agree entry for entry, and re-encode
	// to the same block.
	for _, ar := range []*Archive{a, m} {
		ar.BeginWindow(123)
		if err := ar.Append(2, 9, 18, 27); err != nil {
			t.Fatal(err)
		}
		if err := ar.Append(100, 1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	if m.Mapped() {
		t.Fatal("archive still mapped after append")
	}
	sameArchive(t, a, m)
	if !bytes.Equal(a.AppendMapped(nil), m.AppendMapped(nil)) {
		t.Fatal("mapped block differs after promote")
	}
}

// TestArchiveReloadedStillAppendable: Promote recovers each series' append
// state from its payload, so a reopened archive rejects a second append of
// a rule in the window it was last recorded in, and continues its deltas
// correctly in the next window.
func TestArchiveReloadedStillAppendable(t *testing.T) {
	a := New()
	a.BeginWindow(100)
	a.Append(1, 10, 20, 30)
	b := openMappedCopy(t, a)
	if err := b.Append(1, 1, 1, 1); err == nil {
		t.Error("double append accepted after reopen")
	}
	b.BeginWindow(200)
	if err := b.Append(1, 15, 25, 35); err != nil {
		t.Fatal(err)
	}
	got := b.Series(1)
	if len(got) != 2 || got[1] != (Entry{Window: 1, CountXY: 15, CountX: 25, CountY: 35}) {
		t.Fatalf("Series after reopen+append = %v", got)
	}
}

func TestMappedAppendMappedStable(t *testing.T) {
	// Re-emitting the mapped layout from a mapped archive is byte-identical:
	// table and payload pass through verbatim.
	a := buildRandomArchive(11, 5, 20)
	img := a.AppendMapped(nil)
	m, err := OpenMapped(img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, m.AppendMapped(nil)) {
		t.Fatal("mapped layout not stable across reopen")
	}
}

func TestOpenMappedRejects(t *testing.T) {
	a := buildRandomArchive(9, 4, 12)
	img := a.AppendMapped(nil)

	// Any truncation fails.
	for n := 0; n < len(img); n += 3 {
		if _, err := OpenMapped(img[:n:n]); err == nil {
			t.Fatalf("truncation to %d of %d accepted", n, len(img))
		}
	}

	corrupt := func(name string, mutate func([]byte)) {
		b := append([]byte(nil), img...)
		mutate(b)
		if _, err := OpenMapped(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	corrupt("huge window count", func(b []byte) {
		binary.LittleEndian.PutUint32(b, 1<<31)
	})
	wc := binary.LittleEndian.Uint32(img)
	seriesCountOff := 4 + 4*int(wc)
	corrupt("huge series count", func(b []byte) {
		binary.LittleEndian.PutUint32(b[seriesCountOff:], 1<<31)
	})
	corrupt("descending ids", func(b []byte) {
		// First table entry id above the second's.
		binary.LittleEndian.PutUint32(b[seriesCountOff+4:], 1<<30)
	})
	corrupt("entry count zero", func(b []byte) {
		binary.LittleEndian.PutUint32(b[seriesCountOff+4+4:], 0)
	})
	corrupt("offset gap", func(b []byte) {
		// Second entry's offset bumped: payloads must be contiguous.
		binary.LittleEndian.PutUint64(b[seriesCountOff+4+mappedEntrySize+8:], 1<<40)
	})
	corrupt("payload bytes flipped", func(b []byte) {
		// Flip the final payload byte: the strict decode walk must notice
		// (entry count, window bounds or append-state recovery breaks).
		b[len(b)-1] ^= 0xFF
	})
	b := append(append([]byte(nil), img...), 0xEE)
	if _, err := OpenMapped(b); err == nil {
		t.Error("trailing garbage accepted")
	}

	// Well-framed blocks whose series payload is malformed, or whose
	// payload length is not backed by bytes: open must reject each one.
	for name, in := range adversarialBlocks() {
		t.Run(name, func(t *testing.T) {
			if a, err := OpenMapped(in); err == nil {
				t.Errorf("accepted (archive %d windows, %d entries)", a.Windows(), a.NumEntries())
			}
		})
	}
}

func TestReadArchiveErrors(t *testing.T) {
	if _, err := OpenMapped(nil); err == nil {
		t.Error("empty block accepted")
	}
	if _, err := OpenMapped([]byte("XXXXXX")); err == nil {
		t.Error("junk block accepted")
	}
	img := buildRandomArchive(2, 4, 5).AppendMapped(nil)
	if _, err := OpenMapped(img[: len(img)-3 : len(img)-3]); err == nil {
		t.Error("truncated block accepted")
	}
}

func TestOpenMappedEmptyArchive(t *testing.T) {
	a := New()
	m := openMappedCopy(t, a)
	if m.Windows() != 0 || m.NumRules() != 0 {
		t.Fatalf("empty archive reopened as %d windows, %d rules", m.Windows(), m.NumRules())
	}
	// An empty mapped archive accepts its first window.
	m.BeginWindow(10)
	if err := m.Append(1, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if m.NumRules() != 1 {
		t.Fatalf("rules after first append = %d", m.NumRules())
	}
}

func TestMappedTrajectoryAndRollUp(t *testing.T) {
	a := buildRandomArchive(13, 6, 10)
	m := openMappedCopy(t, a)
	for id := 0; id < 10; id++ {
		wt, werr := a.Trajectory(rules.ID(id), 0, a.Windows()-1)
		gt, gerr := m.Trajectory(rules.ID(id), 0, m.Windows()-1)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("rule %d: trajectory errors diverge: %v vs %v", id, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if len(wt.Entries) != len(gt.Entries) {
			t.Fatalf("rule %d: %d vs %d entries", id, len(gt.Entries), len(wt.Entries))
		}
		for i := range wt.Entries {
			if wt.Entries[i] != gt.Entries[i] {
				t.Fatalf("rule %d entry %d differs", id, i)
			}
		}
		ws, wn, werr := a.RollUp(rules.ID(id), 0, a.Windows()-1)
		gs, gn, gerr := m.RollUp(rules.ID(id), 0, m.Windows()-1)
		if (werr == nil) != (gerr == nil) || ws != gs || wn != gn {
			t.Fatalf("rule %d: roll-up differs: %+v/%d vs %+v/%d", id, gs, gn, ws, wn)
		}
	}
}
