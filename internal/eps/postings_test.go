package eps

import (
	"math"
	"math/rand"
	"testing"

	"tara/internal/itemset"
	"tara/internal/rules"
)

// decodePostings decodes an untrusted posting stream into rule ids, strictly:
// the query path goes through Postings.AppendTo, which trusts the build-time
// streams.
func decodePostings(b []byte) ([]rules.ID, error) {
	var out []rules.ID
	for len(b) > 0 {
		var n int
		var err error
		out, n, err = decodeSegment(out, b)
		if err != nil {
			return nil, err
		}
		b = b[n:]
	}
	return out, nil
}

// encodePostings encodes per-location id lists into one posting stream, the
// inverse of decoding segment by segment.
func encodePostings(segs [][]rules.ID) []byte {
	var out []byte
	for _, ids := range segs {
		out = appendLocationSegment(out, ids)
	}
	return out
}

// randomSlice builds a slice from random rule statistics, the same
// construction the differential cache tests use: nLocs distinct-ish count
// pairs under one N, several rules per location.
func randomSlice(t *testing.T, rng *rand.Rand, nLocs int) *Slice {
	t.Helper()
	const n = 1000
	var rs []IDStats
	id := rules.ID(1)
	for i := 0; i < nLocs; i++ {
		countX := uint32(rng.Intn(n-1) + 1)
		countXY := uint32(rng.Intn(int(countX)) + 1)
		for k := rng.Intn(3) + 1; k > 0; k-- {
			rs = append(rs, IDStats{ID: id, Stats: rules.Stats{CountXY: countXY, CountX: countX, N: n}})
			id++
		}
	}
	s, err := BuildSlice(0, n, rs, Options{})
	if err != nil {
		t.Fatalf("BuildSlice: %v", err)
	}
	return s
}

func idsEqual(a, b []rules.ID) bool {
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

// TestPostingsMatchScan proves the zero-copy posting path returns exactly the
// rules (and order) of the reference scan at random and on-grid points.
func TestPostingsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSlice(t, rng, 120)
	points := make([][2]float64, 0, 600)
	for i := 0; i < 400; i++ {
		points = append(points, [2]float64{rng.Float64(), rng.Float64()})
	}
	// On-grid points hit the inclusive-boundary corners.
	for _, l := range s.Locations() {
		points = append(points, [2]float64{l.Supp, l.Conf})
	}
	points = append(points, [2]float64{0, 0}, [2]float64{1, 1})
	var p Postings
	buf := make([]rules.ID, 0, 64)
	for _, pt := range points {
		want := s.ScanRules(pt[0], pt[1])
		got := s.AppendRules(buf[:0], pt[0], pt[1])
		if !idsEqual(got, want) {
			t.Fatalf("AppendRules(%v, %v): got %d ids, want %d", pt[0], pt[1], len(got), len(want))
		}
		s.PostingsInto(&p, pt[0], pt[1])
		if p.Len() != len(want) {
			t.Fatalf("Postings.Len at (%v, %v) = %d, want %d", pt[0], pt[1], p.Len(), len(want))
		}
		if dec := p.AppendTo(buf[:0]); !idsEqual(dec, want) {
			t.Fatalf("Postings.AppendTo(%v, %v) mismatch", pt[0], pt[1])
		}
		if dec := s.Postings(pt[0], pt[1]).IDs(); !idsEqual(dec, want) {
			t.Fatalf("Postings.IDs(%v, %v) mismatch", pt[0], pt[1])
		}
	}
}

// TestPostingsZeroCopySharing asserts the domination-graph sharing claim: a
// dominating cut's posting segments literally alias the dominated cut's
// bytes (same backing rows, longer suffixes), not copies.
func TestPostingsZeroCopySharing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomSlice(t, rng, 60)
	low := s.Postings(0, 0)      // dominates everything
	high := s.Postings(0.5, 0.5) // dominated: subset of rows/suffixes
	if low.Len() != s.NumRuleRefs() {
		t.Fatalf("full postings Len = %d, want %d", low.Len(), s.NumRuleRefs())
	}
	if high.Len() == 0 {
		t.Skip("degenerate random slice: no rules above (0.5, 0.5)")
	}
	// Every segment of the dominated cut must be a suffix view of one of the
	// dominating cut's segments: same final byte address.
	lastByte := func(b []byte) *byte { return &b[len(b)-1] }
	owners := map[*byte]bool{}
	for _, seg := range low.segs {
		owners[lastByte(seg)] = true
	}
	for i, seg := range high.segs {
		if !owners[lastByte(seg)] {
			t.Fatalf("segment %d of dominated cut does not alias the dominating cut's stream", i)
		}
	}
}

func TestDecodePostingsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		segs := make([][]rules.ID, rng.Intn(4))
		var want []rules.ID
		for i := range segs {
			n := rng.Intn(6)
			ids := make([]rules.ID, 0, n)
			next := uint64(rng.Intn(100))
			for j := 0; j < n; j++ {
				if next > math.MaxUint32 {
					break
				}
				ids = append(ids, rules.ID(next))
				next += uint64(rng.Intn(1000) + 1)
			}
			segs[i] = ids
			want = append(want, ids...)
		}
		enc := encodePostings(segs)
		got, err := decodePostings(enc)
		if err != nil {
			t.Fatalf("decodePostings(encodePostings): %v", err)
		}
		if !idsEqual(got, want) {
			t.Fatalf("round trip mismatch: got %v want %v", got, want)
		}
	}
}

func TestDecodePostingsRejectsMalformed(t *testing.T) {
	valid := encodePostings([][]rules.ID{{1, 5, 9}, {2}})
	cases := map[string][]byte{
		"truncated count":      {0x80},
		"truncated first id":   {2, 0x80},
		"truncated delta":      {2, 1, 0x80},
		"count beyond stream":  {10, 1},
		"zero delta":           {2, 1, 0},
		"id overflows uint32":  {2, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"first id over uint32": {1, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"valid then truncated": append(append([]byte{}, valid...), 3, 1),
	}
	for name, b := range cases {
		if _, err := decodePostings(b); err == nil {
			t.Errorf("%s: decodePostings accepted %v", name, b)
		}
	}
	// Every strict prefix of a valid stream that is not a segment boundary
	// must be rejected; boundary prefixes decode to a prefix of the ids.
	want, err := decodePostings(valid)
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for cut := 0; cut < len(valid); cut++ {
		got, err := decodePostings(valid[:cut])
		if err != nil {
			continue
		}
		if len(got) > len(want) || !idsEqual(got, want[:len(got)]) {
			t.Fatalf("prefix %d decoded to %v, not a prefix of %v", cut, got, want)
		}
	}
}

// TestRulesContentIndexUnaffected guards that the postings integration left
// the content-indexed collection paths intact.
func TestRulesContentIndexUnaffected(t *testing.T) {
	dict := rules.NewDict()
	mk := func(x, y itemset.Item) rules.ID {
		return dict.Add(rules.Rule{Ant: itemset.Set{x}, Cons: itemset.Set{y}})
	}
	rs := []IDStats{
		{ID: mk(1, 2), Stats: rules.Stats{CountXY: 50, CountX: 100, N: 100}},
		{ID: mk(1, 3), Stats: rules.Stats{CountXY: 50, CountX: 100, N: 100}},
		{ID: mk(2, 3), Stats: rules.Stats{CountXY: 80, CountX: 100, N: 100}},
	}
	s, err := BuildSlice(0, 100, rs, Options{ContentIndex: true, Dict: dict})
	if err != nil {
		t.Fatalf("BuildSlice: %v", err)
	}
	got, err := s.RulesWithItems(0.1, 0.1, itemset.Set{1})
	if err != nil {
		t.Fatalf("RulesWithItems: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("RulesWithItems(item 1) = %v, want 2 rules", got)
	}
	if all := s.Rules(0.1, 0.1); len(all) != 3 {
		t.Fatalf("Rules = %v, want 3 ids", all)
	}
}
