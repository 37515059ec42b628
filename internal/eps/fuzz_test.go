package eps

import (
	"testing"

	"tara/internal/rules"
)

// FuzzPostings drives the strict posting-stream decoder with adversarial
// bytes. Properties checked:
//   - the decoder never panics and never allocates beyond the byte budget
//     implied by the stream (each id costs >= 1 byte, enforced by the count
//     bound);
//   - any stream it accepts, re-encoded segment by segment, decodes to the
//     same ids (value round-trip; byte identity is not required because
//     varints admit non-minimal encodings);
//   - ids within a segment come out strictly ascending and within uint32.
func FuzzPostings(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodePostings([][]rules.ID{{1, 2, 3}}))
	f.Add(encodePostings([][]rules.ID{{}, {7}, {0, 4294967295}}))
	f.Add([]byte{0x80})                            // truncated count varint
	f.Add([]byte{10, 1})                           // count beyond stream
	f.Add([]byte{2, 1, 0})                         // zero delta
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x7f}) // id overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		flat, err := decodePostings(data)
		if err != nil {
			return
		}
		if len(flat) > len(data) {
			t.Fatalf("decoded %d ids from %d bytes; count bound violated", len(flat), len(data))
		}
		// Re-walk the accepted stream segment by segment so the original
		// segmentation is preserved, then re-encode and decode again.
		var segs [][]rules.ID
		rest := data
		for len(rest) > 0 {
			seg, n, err := decodeSegment(nil, rest)
			if err != nil {
				t.Fatalf("decodePostings accepted a stream decodeSegment rejects: %v", err)
			}
			for i := 1; i < len(seg); i++ {
				if seg[i] <= seg[i-1] {
					t.Fatalf("segment ids not strictly ascending: %v", seg)
				}
			}
			segs = append(segs, seg)
			rest = rest[n:]
		}
		back, err := decodePostings(encodePostings(segs))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if !idsEqual(back, flat) {
			t.Fatalf("value round trip mismatch: %v -> %v", flat, back)
		}
	})
}
