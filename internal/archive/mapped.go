package archive

import (
	"encoding/binary"
	"fmt"

	"tara/internal/rules"
)

// Mapped archive layout — the on-disk form of the TAR Archive, stored inside
// one section of the TARAKB2 container. A fixed-width, id-sorted series
// table sits in front of one contiguous payload blob, so a rule's encoded
// series is found by binary search and served as an offset/length pair into
// the mapped file — no per-series allocation, no map construction, no
// payload copy at open.
//
// Layout (all integers little-endian, fixed width):
//
//	u32 windowCount, then windowCount × u32 window cardinalities
//	u32 seriesCount
//	seriesCount × 16 bytes: ruleID u32, entryCount u32,
//	                        payload offset u64 (relative to blob start)
//	u64 payload blob length
//	payload blob (the per-series delta-varint streams, id-ascending,
//	              byte-identical to the in-memory encoding)
//
// A series' append state (prevW, prevXY, ...) is not stored: it equals the
// final decoded entry, which Promote recovers when an append needs it.

const mappedEntrySize = 16

// mappedSeries is the read-side view of the mapped layout: the table and
// payload alias the opened container's bytes.
type mappedSeries struct {
	table   []byte // seriesCount × mappedEntrySize, id-ascending
	payload []byte
}

func (m *mappedSeries) count() int { return len(m.table) / mappedEntrySize }

// entry returns the i-th table row and the byte range of its payload.
func (m *mappedSeries) entry(i int) (id rules.ID, n int, off, end uint64) {
	e := m.table[mappedEntrySize*i:]
	id = rules.ID(binary.LittleEndian.Uint32(e))
	n = int(binary.LittleEndian.Uint32(e[4:]))
	off = binary.LittleEndian.Uint64(e[8:])
	if next := mappedEntrySize * (i + 1); next < len(m.table) {
		end = binary.LittleEndian.Uint64(m.table[next+8:])
	} else {
		end = uint64(len(m.payload))
	}
	return id, n, off, end
}

// find binary-searches the table for id, returning its index or -1.
func (m *mappedSeries) find(id rules.ID) int {
	lo, hi := 0, m.count()
	for lo < hi {
		mid := (lo + hi) / 2
		got := rules.ID(binary.LittleEndian.Uint32(m.table[mappedEntrySize*mid:]))
		switch {
		case got < id:
			lo = mid + 1
		case got > id:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// seriesAt returns the payload bytes and entry count of table row i.
func (m *mappedSeries) seriesAt(i int) (buf []byte, n int) {
	_, n, off, end := m.entry(i)
	return m.payload[off:end:end], n
}

// AppendMapped appends the archive's mapped-layout block to dst. The output
// is deterministic (id-ascending) and identical whether the archive is
// heap-resident or itself mapped.
func (a *Archive) AppendMapped(dst []byte) []byte {
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		dst = append(dst, tmp[:4]...)
	}
	put32(uint32(len(a.windowN)))
	for _, wn := range a.windowN {
		put32(wn)
	}
	if a.mapped != nil {
		put32(uint32(a.mapped.count()))
		dst = append(dst, a.mapped.table...)
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(a.mapped.payload)))
		dst = append(dst, tmp[:]...)
		return append(dst, a.mapped.payload...)
	}
	ids := a.Rules()
	sortIDs(ids)
	put32(uint32(len(ids)))
	var off uint64
	for _, id := range ids {
		s := a.entries[id]
		put32(uint32(id))
		put32(uint32(s.n))
		binary.LittleEndian.PutUint64(tmp[:], off)
		dst = append(dst, tmp[:]...)
		off += uint64(len(s.buf))
	}
	binary.LittleEndian.PutUint64(tmp[:], off)
	dst = append(dst, tmp[:]...)
	for _, id := range ids {
		dst = append(dst, a.entries[id].buf...)
	}
	return dst
}

// OpenMapped opens a mapped-layout block produced by AppendMapped. The
// returned archive serves all read paths directly off b (which usually
// aliases a memory-mapped file and must stay valid for the archive's
// lifetime); the first Append promotes it to heap form. The table is
// structurally validated — sorted unique ids, monotonic in-bounds offsets,
// plausible entry counts — and every payload is walked once by the strict
// delta-varint decoder, so later decodes cannot loop, panic or over-read.
func OpenMapped(b []byte) (*Archive, error) {
	need := func(n int, what string) error {
		if len(b) < n {
			return fmt.Errorf("archive: mapped block truncated in %s", what)
		}
		return nil
	}
	if err := need(4, "window count"); err != nil {
		return nil, err
	}
	wc := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint64(wc)*4 > uint64(len(b)) {
		return nil, fmt.Errorf("archive: mapped block claims %d windows in %d bytes", wc, len(b))
	}
	a := New()
	a.windowN = make([]uint32, wc)
	for i := range a.windowN {
		a.windowN[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	b = b[4*wc:]
	if err := need(4, "series count"); err != nil {
		return nil, err
	}
	sc := binary.LittleEndian.Uint32(b)
	b = b[4:]
	tableLen := uint64(sc) * mappedEntrySize
	if tableLen+8 > uint64(len(b)) {
		return nil, fmt.Errorf("archive: mapped block claims %d series in %d bytes", sc, len(b))
	}
	table := b[:tableLen:tableLen]
	payloadLen := binary.LittleEndian.Uint64(b[tableLen:])
	rest := b[tableLen+8:]
	if payloadLen != uint64(len(rest)) {
		return nil, fmt.Errorf("archive: mapped payload length %d disagrees with block (%d bytes)", payloadLen, len(rest))
	}
	m := &mappedSeries{table: table, payload: rest[:payloadLen:payloadLen]}
	prevID := int64(-1)
	prevOff := uint64(0)
	for i := 0; i < m.count(); i++ {
		id, n, off, end := m.entry(i)
		if int64(id) <= prevID {
			return nil, fmt.Errorf("archive: mapped table not id-ascending at row %d", i)
		}
		prevID = int64(id)
		if off != prevOff {
			return nil, fmt.Errorf("archive: series %d payload offset %d not contiguous (want %d)", id, off, prevOff)
		}
		if end < off || end > payloadLen {
			return nil, fmt.Errorf("archive: series %d payload [%d,%d) out of bounds", id, off, end)
		}
		prevOff = end
		if n == 0 {
			return nil, fmt.Errorf("archive: series %d has no entries", id)
		}
		if uint64(n) > (end-off)/4 {
			return nil, fmt.Errorf("archive: series %d claims %d entries in %d bytes", id, n, end-off)
		}
		count := 0
		err := decodePayload(m.payload[off:end], func(e Entry) error {
			if e.Window >= len(a.windowN) {
				return fmt.Errorf("archive: series %d entry references window %d beyond %d", id, e.Window, len(a.windowN))
			}
			count++
			return nil
		})
		if err != nil {
			return nil, err
		}
		if count != n {
			return nil, fmt.Errorf("archive: series %d payload holds %d entries, table says %d", id, count, n)
		}
		a.total += n
	}
	if prevOff != payloadLen {
		return nil, fmt.Errorf("archive: mapped payload has %d trailing bytes", payloadLen-prevOff)
	}
	a.mapped = m
	return a, nil
}

// Mapped reports whether the archive currently serves reads from a mapped
// block (false after Promote or for heap-built archives).
func (a *Archive) Mapped() bool { return a.mapped != nil }

// Promote converts a mapped archive to the heap representation: every series
// payload is copied off the mapped bytes and its append state recovered from
// the final decoded entry, after which the archive no longer references the
// mapped block and appends proceed as usual. No-op for heap archives.
func (a *Archive) Promote() error {
	if a.mapped == nil {
		return nil
	}
	m := a.mapped
	entries := make(map[rules.ID]*series, m.count())
	for i := 0; i < m.count(); i++ {
		id, n, off, end := m.entry(i)
		s := &series{buf: append([]byte(nil), m.payload[off:end]...), n: n, prevW: -1}
		// OpenMapped validated the payload; this walk only recovers the
		// final append state.
		err := decodePayload(s.buf, func(e Entry) error {
			s.prevW, s.prevXY, s.prevX, s.prevY = e.Window, e.CountXY, e.CountX, e.CountY
			return nil
		})
		if err != nil {
			return fmt.Errorf("archive: promoting series %d: %w", id, err)
		}
		entries[id] = s
	}
	a.entries = entries
	a.mapped = nil
	return nil
}

// seriesPayload returns the encoded payload and entry count of rule id from
// whichever representation holds it.
func (a *Archive) seriesPayload(id rules.ID) (buf []byte, n int, ok bool) {
	if a.mapped != nil {
		i := a.mapped.find(id)
		if i < 0 {
			return nil, 0, false
		}
		buf, n = a.mapped.seriesAt(i)
		return buf, n, true
	}
	s := a.entries[id]
	if s == nil {
		return nil, 0, false
	}
	return s.buf, s.n, true
}

func sortIDs(ids []rules.ID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
