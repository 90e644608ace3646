package cluster

import (
	"math"
	"testing"
)

// The fuzz targets below feed arbitrary bytes to the binary round decoders.
// Neither may panic, and a payload a decoder accepts must re-encode to a
// payload that decodes to the same value. Seed corpora live in
// testdata/fuzz/<target>: a real round, a truncated payload, bad magic, an
// oversized count and trailing bytes. CI runs each target briefly.

// sameWalks reports whether two decoded walk lists carry the same vertices
// and the same float bits.
func sameWalks(a, b [][]entry) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			return false
		}
		for i, e := range a[w] {
			if e.V != b[w][i].V || math.Float64bits(e.S) != math.Float64bits(b[w][i].S) {
				return false
			}
		}
	}
	return true
}

func FuzzDecodeShares(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		round, shares, err := decodeShares(b)
		if err != nil {
			return
		}
		re, err := encodeShares(round, shares)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		round2, shares2, err := decodeShares(re)
		if err != nil || round2 != round || !sameWalks(shares, shares2) {
			t.Fatalf("re-encoded payload decodes to round %d (%v), want round %d and the same shares", round2, err, round)
		}
	})
}

func FuzzDecodeAdvance(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := decodeAdvance(b); err == nil {
			re, err := req.encode()
			if err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			req2, err := decodeAdvance(re)
			if err != nil || req2.Round != req.Round || !sameWalks(req.Support, req2.Support) {
				t.Fatalf("re-encoded request decodes to round %d (%v), want round %d and the same support", req2.Round, err, req.Round)
			}
		}
		if resp, err := decodeAdvanceReply(b); err == nil {
			re, err := resp.encode()
			if err != nil {
				t.Fatalf("accepted reply does not re-encode: %v", err)
			}
			resp2, err := decodeAdvanceReply(re)
			if err != nil || resp2.Round != resp.Round || resp2.T != resp.T || !sameWalks(resp.Support, resp2.Support) {
				t.Fatalf("re-encoded reply decodes to %+v (%v), want round %d, timing %+v and the same support", resp2.T, err, resp.Round, resp.T)
			}
		}
	})
}
