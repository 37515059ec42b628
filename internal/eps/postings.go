// Region postings: per-stable-region rule-ID lists materialized as zero-copy
// views into per-row delta-varint streams.
//
// Lemma 4 makes a stable region's ruleset the union of the rules at every
// parametric location dominating its canonical cut (Definition 12). Instead
// of materializing that union per request, each support row's locations are
// encoded once, at build time, into a single byte stream of self-delimiting
// segments — one segment per location, confidence-ascending, each segment a
// varint count followed by the location's sorted rule ids delta-varint
// encoded. Because every segment opens with an absolute id, any suffix of a
// row stream that starts on a segment boundary decodes standalone; the
// qualifying locations of a row under a confidence threshold are exactly such
// a suffix. A cut's postings are therefore a handful of byte sub-slices —
// one per contributing row — shared with every dominating cut along the
// domination graph (Definition 13): cut (s, c) and the cuts it dominates
// reference the same underlying bytes, lower cuts simply referencing longer
// suffixes and more rows. No region duplicates a rule id; the streams are
// written once per window and never copied again.
package eps

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"tara/internal/rules"
)

// appendLocationSegment appends one location's sorted rule ids as a
// self-delimiting segment: uvarint(count), uvarint(ids[0]) absolute, then
// uvarint deltas (strictly positive — ids within a location are sorted and
// unique).
func appendLocationSegment(dst []byte, ids []rules.ID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	prev := uint64(0)
	for i, id := range ids {
		v := uint64(id)
		if i == 0 {
			dst = binary.AppendUvarint(dst, v)
		} else {
			dst = binary.AppendUvarint(dst, v-prev)
		}
		prev = v
	}
	return dst
}

// decodeSegment decodes one segment from the front of b into dst, returning
// the extended slice and the bytes consumed. It is strict: truncated varints,
// counts exceeding the remaining bytes (each id costs at least one byte, so a
// larger count cannot be honest) and ids overflowing uint32 are errors, never
// panics or unbounded allocations — the properties the fuzz target checks.
func decodeSegment(dst []rules.ID, b []byte) ([]rules.ID, int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 {
		return dst, 0, fmt.Errorf("eps: posting segment count truncated")
	}
	off := n
	if count > uint64(len(b)-off) {
		return dst, 0, fmt.Errorf("eps: posting segment claims %d ids in %d bytes", count, len(b)-off)
	}
	prev := uint64(0)
	for i := uint64(0); i < count; i++ {
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return dst, 0, fmt.Errorf("eps: posting id %d/%d truncated", i, count)
		}
		off += n
		if i == 0 {
			prev = v
		} else {
			if v == 0 || v > math.MaxUint32-prev {
				return dst, 0, fmt.Errorf("eps: posting delta %d invalid after id %d", v, prev)
			}
			prev += v
		}
		if prev > math.MaxUint32 {
			return dst, 0, fmt.Errorf("eps: posting id %d overflows uint32", prev)
		}
		dst = append(dst, rules.ID(prev))
	}
	return dst, off, nil
}

// appendDecodedStream decodes a full posting stream (a concatenation of
// segments) into dst. The streams it is handed are built by BuildSlice and
// immutable, so a decode failure indicates memory corruption, not bad input.
func appendDecodedStream(dst []rules.ID, b []byte) []rules.ID {
	for len(b) > 0 {
		var n int
		var err error
		dst, n, err = decodeSegment(dst, b)
		if err != nil {
			panic(fmt.Sprintf("eps: corrupt posting stream: %v", err))
		}
		b = b[n:]
	}
	return dst
}

// Postings is one stable region's ruleset as zero-copy views into the
// slice's per-row posting streams: Len rule ids spread over one byte
// sub-slice per contributing support row. The views alias build-time memory
// shared with every dominating region; a Postings value is cheap to copy and
// safe for concurrent use.
type Postings struct {
	n    int
	segs [][]byte
}

// Len returns the number of rule ids the postings decode to.
func (p Postings) Len() int { return p.n }

// AppendTo decodes the postings into dst, growing it at most once. The id
// order matches Slice.Rules: rows by ascending support, locations by
// ascending confidence within a row, ids ascending within a location.
func (p Postings) AppendTo(dst []rules.ID) []rules.ID {
	if free := cap(dst) - len(dst); free < p.n {
		grown := make([]rules.ID, len(dst), len(dst)+p.n)
		copy(grown, dst)
		dst = grown
	}
	for _, seg := range p.segs {
		dst = appendDecodedStream(dst, seg)
	}
	return dst
}

// IDs decodes the postings into a fresh exactly-sized slice (nil when empty).
func (p Postings) IDs() []rules.ID {
	if p.n == 0 {
		return nil
	}
	return p.AppendTo(make([]rules.ID, 0, p.n))
}

// buildPostings derives the per-row posting streams from the finished row
// layout; called by buildAccel once per slice. rowPostOff[i][j] is the byte
// offset of location j's segment in row i's stream (a len(row)+1 fence), so
// the qualifying suffix of a row under any confidence threshold is the
// sub-slice starting at its first qualifying location's offset.
func (s *Slice) buildPostings() {
	s.rowPost = make([][]byte, len(s.rows))
	s.rowPostOff = make([][]int32, len(s.rows))
	for i, idx := range s.rows {
		off := make([]int32, len(idx)+1)
		var stream []byte
		for j, li := range idx {
			off[j] = int32(len(stream))
			stream = appendLocationSegment(stream, s.locs[li].Rules)
		}
		off[len(idx)] = int32(len(stream))
		s.rowPost[i] = stream
		s.rowPostOff[i] = off
	}
}

// PostingsInto collects the postings of the stable region containing
// (minSupp, minConf) into p, reusing p's segment slice — the allocation-free
// variant of Postings. Rows are walked with the same skip chain as Count, so
// only contributing rows pay a binary search.
func (s *Slice) PostingsInto(p *Postings, minSupp, minConf float64) {
	p.n = 0
	p.segs = p.segs[:0]
	for row := sort.SearchFloat64s(s.supports, minSupp); row < len(s.rows); {
		if s.rowMaxConf[row] < minConf {
			row = int(s.rowSkip[row])
			continue
		}
		idx := s.rows[row]
		lo := sort.Search(len(idx), func(i int) bool { return s.locs[idx[i]].Conf >= minConf })
		if c := s.rowCum[row][lo]; c > 0 {
			p.n += int(c)
			p.segs = append(p.segs, s.rowPost[row][s.rowPostOff[row][lo]:])
		}
		row++
	}
}

// Postings returns the stable region's ruleset as zero-copy posting views
// (see the package comment on sharing along the domination graph).
func (s *Slice) Postings(minSupp, minConf float64) Postings {
	var p Postings
	s.PostingsInto(&p, minSupp, minConf)
	return p
}

// AppendRules appends the ids of all rules satisfying (minSupp, minConf) to
// dst — Rules without the per-call answer allocation, for callers that pool
// their buffers. dst grows at most once (to the exact answer size).
func (s *Slice) AppendRules(dst []rules.ID, minSupp, minConf float64) []rules.ID {
	n := s.Count(minSupp, minConf)
	if n == 0 {
		return dst
	}
	if free := cap(dst) - len(dst); free < n {
		grown := make([]rules.ID, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	for row := sort.SearchFloat64s(s.supports, minSupp); row < len(s.rows); {
		if s.rowMaxConf[row] < minConf {
			row = int(s.rowSkip[row])
			continue
		}
		idx := s.rows[row]
		lo := sort.Search(len(idx), func(i int) bool { return s.locs[idx[i]].Conf >= minConf })
		dst = appendDecodedStream(dst, s.rowPost[row][s.rowPostOff[row][lo]:])
		row++
	}
	return dst
}
