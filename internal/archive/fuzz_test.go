package archive

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// mappedBlock builds a mapped-layout block with one window (cardinality 10)
// and a single series, rule 7, whose entry count and payload bytes are
// caller-controlled — the shape every payload attack uses.
func mappedBlock(entries uint32, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 1) // window count
	b = binary.LittleEndian.AppendUint32(b, 10)   // window cardinality
	b = binary.LittleEndian.AppendUint32(b, 1)    // series count
	b = binary.LittleEndian.AppendUint32(b, 7)    // rule id
	b = binary.LittleEndian.AppendUint32(b, entries)
	b = binary.LittleEndian.AppendUint64(b, 0) // payload offset
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...)
}

// adversarialBlocks are the series payloads (and a payload length) that
// crashed, hung or over-allocated a pre-hardening decoder, each framed as a
// mapped block. They seed FuzzOpenMapped and are rows of
// TestOpenMappedRejects and (behind a valid series)
// TestReadArchiveRejectsAdversarialStreams.
func adversarialBlocks() map[string][]byte {
	enc := func(vals ...uint64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	// A multi-terabyte payload length backed by four real bytes.
	hugeLen := mappedBlock(1, enc(1, zigzag(5), 0, 0))
	binary.LittleEndian.PutUint64(hugeLen[12+mappedEntrySize:], 1<<42)
	return map[string][]byte{
		// Overlong varints made Series slice with a negative index (panic);
		// truncated varints decoded as zero bytes consumed (infinite loop).
		"payload-overlong-varint":  mappedBlock(1, bytes.Repeat([]byte{0xFF}, 12)),
		"payload-truncated-varint": mappedBlock(1, append(enc(1, zigzag(5), 0), 0x80)),
		// A gap of zero claims two records in one window.
		"payload-zero-gap": mappedBlock(2, enc(1, 0, 0, 0, 0, 0, 0, 0)),
		// A gap past the recorded windows, and a running count below zero.
		"window-gap-escape": mappedBlock(1, enc(5, zigzag(5), 0, 0)),
		"negative-count":    mappedBlock(1, enc(1, zigzag(-3), 0, 0)),
		// An entry count the payload does not back up: plausible for its
		// length, so only the decode walk catches it.
		"entry-count-mismatch": mappedBlock(2, enc(1, zigzag(1<<20), zigzag(1<<20), zigzag(1<<20))),
		// An attacker-chosen count that would size allocations.
		"huge-entry-count":    mappedBlock(math.MaxUint32, enc(1, zigzag(5), 0, 0)),
		"huge-payload-length": hugeLen,
	}
}

// FuzzOpenMapped checks the mapped-block decoder never panics, loops or
// over-allocates on arbitrary bytes, that every read path is safe on an
// accepted block, and that accepted blocks round-trip through AppendMapped
// both as opened and after promotion to the heap.
func FuzzOpenMapped(f *testing.F) {
	img := buildRandomArchive(2, 5, 12).AppendMapped(nil)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(append(img[:len(img):len(img)], 0xEE))
	f.Add(New().AppendMapped(nil))
	f.Add(buildRandomArchive(1, 3, 4).AppendMapped(nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // huge window count
	for _, in := range adversarialBlocks() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := OpenMapped(in)
		if err != nil {
			return
		}
		for _, id := range got.Rules() {
			for _, e := range got.Series(id) {
				if e.Window < 0 || e.Window >= got.Windows() {
					t.Fatalf("rule %d decoded entry in window %d of %d", id, e.Window, got.Windows())
				}
			}
			if got.Windows() > 0 {
				if _, _, err := got.RollUp(id, 0, got.Windows()-1); err != nil {
					t.Fatalf("RollUp over accepted block: %v", err)
				}
				tr, err := got.Trajectory(id, 0, got.Windows()-1)
				if err != nil {
					t.Fatalf("Trajectory over accepted block: %v", err)
				}
				tr.SupportSeries() // must not index out of range
			}
		}
		out := got.AppendMapped(nil)
		if !bytes.Equal(out, in) {
			t.Fatal("accepted block does not re-emit byte for byte")
		}
		if err := got.Promote(); err != nil {
			t.Fatalf("Promote of accepted block: %v", err)
		}
		if !bytes.Equal(got.AppendMapped(nil), in) {
			t.Fatal("promoted block re-encodes differently")
		}
	})
}

// behindValidSeries reframes a mappedBlock so its series (rule 7) follows a
// well-formed series for rule 3, keeping its entry count and declared
// payload length.
func behindValidSeries(block []byte) []byte {
	good := binary.AppendUvarint(nil, 1)
	good = binary.AppendUvarint(good, zigzag(5))
	good = append(good, 0, 0)
	entries := binary.LittleEndian.Uint32(block[16:])
	declared := binary.LittleEndian.Uint64(block[12+mappedEntrySize:])
	b := binary.LittleEndian.AppendUint32(nil, 1) // window count
	b = binary.LittleEndian.AppendUint32(b, 10)   // window cardinality
	b = binary.LittleEndian.AppendUint32(b, 2)    // series count
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 7)
	b = binary.LittleEndian.AppendUint32(b, entries)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(good)))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(good))+declared)
	b = append(b, good...)
	return append(b, block[12+mappedEntrySize+8:]...)
}

// TestReadArchiveRejectsAdversarialStreams locks in that open validates
// every series, not only the first: each adversarial payload is rejected
// when it sits behind a well-formed series.
func TestReadArchiveRejectsAdversarialStreams(t *testing.T) {
	valid := behindValidSeries(mappedBlock(1, []byte{1, byte(zigzag(5)), 0, 0}))
	if a, err := OpenMapped(valid); err != nil || a.NumRules() != 2 {
		t.Fatalf("well-formed two-series block: err = %v", err)
	}
	for name, in := range adversarialBlocks() {
		t.Run(name, func(t *testing.T) {
			if a, err := OpenMapped(behindValidSeries(in)); err == nil {
				t.Errorf("accepted (archive %d windows, %d entries)", a.Windows(), a.NumEntries())
			}
		})
	}
}
