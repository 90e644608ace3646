package cluster

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
)

// The fuzz targets below feed arbitrary bytes to the binary round decoders
// and the link's frame reader. None may panic, and a payload a decoder
// accepts must re-encode to a payload that decodes to the same value (a
// whole binary frame, to the very bytes it was read from). Seed corpora
// live in testdata/fuzz/<target>: real rounds and session frames, truncated
// payloads, bad magic, oversized counts and lengths, and trailing bytes. CI
// runs each target briefly.

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

// FuzzReadFrame reads one frame as a link reader does — session id, a
// payload length checked against a bound and, for an open, against
// maxControlBody before the payload is allocated, then the payload's codec
// (open, close, advance, shares, reply or error) — and requires an accepted
// binary frame to re-encode to exactly its own bytes: every varint has one
// encoding. JSON is not byte-canonical, so an accepted open must instead
// re-encode to a payload that decodes to an equal request.
func FuzzReadFrame(f *testing.F) {
	const bound = 1 << 17 // stands in for a session's frame bound
	f.Fuzz(func(t *testing.T, b []byte) {
		br := bufio.NewReader(bytes.NewReader(b))
		sid, size, err := readFrameHead(br)
		if err != nil || size == 0 || size > bound {
			return
		}
		if magic, err := br.Peek(1); err != nil || magic[0] == openMagic && size > maxControlBody {
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		var re []byte
		switch payload[0] {
		case openMagic:
			req, err := decodeOpen(payload)
			if err != nil {
				return
			}
			req2, err := decodeOpen(encodeOpen(req))
			if err != nil || !reflect.DeepEqual(req2, req) {
				t.Fatalf("accepted open %+v re-encodes to %+v (%v)", req, req2, err)
			}
			return
		case closeMagic:
			if !bytes.Equal(payload, closePayload) {
				return
			}
			re = closePayload
		case shareMagic:
			round, shares, err := decodeShares(payload)
			if err != nil {
				return
			}
			if re, err = encodeShares(round, shares); err != nil {
				t.Fatalf("accepted shares do not re-encode: %v", err)
			}
		case advanceMagic:
			req, err := decodeAdvance(payload)
			if err != nil {
				return
			}
			if re, err = req.encode(); err != nil {
				t.Fatalf("accepted advance does not re-encode: %v", err)
			}
		case advanceReplyMagic:
			resp, err := decodeAdvanceReply(payload)
			if err != nil {
				return
			}
			if re, err = resp.encode(); err != nil {
				t.Fatalf("accepted reply does not re-encode: %v", err)
			}
		case errorMagic:
			rerr, err := decodeError(payload)
			if err != nil {
				return
			}
			re = encodeError(rerr)
		default:
			return
		}
		frame := appendFrame(nil, sid, re)
		if !bytes.Equal(frame, b[:min(len(frame), len(b))]) {
			t.Fatalf("accepted frame %x re-encodes to %x", b[:min(len(frame), len(b))], frame)
		}
	})
}
