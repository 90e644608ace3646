package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary round codec: the wire form of every per-round message — the
// shares one shard freezes for one peer (shard → shard), the owned support
// the driver routes to a shard (advance request), and the shard's
// next-step support (advance reply). All three carry, per walk, sparse
// (vertex, value) entries in ascending vertex order. Layout, integers
// LEB128 varints (unsigned, except the reply's signed timings), floats
// little-endian IEEE 754:
//
//	byte    magic           0xC5 shares, 0xC6 advance request, 0xC7 advance reply
//	byte    0x01            version
//	uvarint round
//	uvarint walk count
//	per walk:
//	  uvarint entry count c
//	  c × uvarint          vertex deltas: first = v₀, then vᵢ − vᵢ₋₁
//	  c × 8 bytes          float64 bits of the values, same order
//	reply only:
//	  3 × varint           freeze, pull and gather nanoseconds
//
// Delta coding leans on an invariant every sender guarantees: entries are
// emitted in ascending vertex order (boundary lists, owned lists and
// support scans all ascend), so every delta after the first is ≥ 1 and
// small — typically one or two bytes against the 8-byte float it labels.
// The float bits cross the wire verbatim, so the codec is numerically exact
// and the bit-identity contract of congest.FloodTransport survives. The
// puller of a shares payload counts its encoded size as the measured wire
// load of that machine link for the round.
const (
	shareMagic        = 0xC5
	advanceMagic      = 0xC6
	advanceReplyMagic = 0xC7
	codecVersion      = 0x01

	// The content types name the codec on the wire; the version is part of
	// the name so a future layout change is a new content type, not a parse
	// ambiguity. Advance requests and replies share one, told apart by
	// their magic.
	shareContentType   = "application/x-cdrw-shares-v1"
	advanceContentType = "application/x-cdrw-advance-v1"
)

// codecName names a message class in errors.
func codecName(magic byte) string {
	switch magic {
	case shareMagic:
		return "shares"
	case advanceMagic:
		return "advance"
	default:
		return "advance reply"
	}
}

// encodeRound encodes one round's per-walk entries under magic, followed by
// the trailer values as signed varints. Entries within a walk must be in
// strictly ascending vertex order; violations are reported rather than
// silently mis-encoded.
func encodeRound(magic byte, round int, walks [][]entry, trailer ...int64) ([]byte, error) {
	size := 2 + binary.MaxVarintLen64*(2+len(trailer))
	for _, walk := range walks {
		size += binary.MaxVarintLen64 + len(walk)*(binary.MaxVarintLen32+8)
	}
	buf := make([]byte, 2, size)
	buf[0], buf[1] = magic, codecVersion
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(len(walks)))
	for w, walk := range walks {
		buf = binary.AppendUvarint(buf, uint64(len(walk)))
		prev := int32(0)
		for i, e := range walk {
			if i > 0 && e.V <= prev {
				return nil, fmt.Errorf("%w: encode %s: walk %d entry %d: vertex %d after %d breaks ascending order", errCluster, codecName(magic), w, i, e.V, prev)
			}
			if e.V < 0 {
				return nil, fmt.Errorf("%w: encode %s: walk %d entry %d: negative vertex %d", errCluster, codecName(magic), w, i, e.V)
			}
			buf = binary.AppendUvarint(buf, uint64(e.V-prev))
			prev = e.V
		}
		for _, e := range walk {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.S))
		}
	}
	for _, v := range trailer {
		buf = binary.AppendVarint(buf, v)
	}
	return buf, nil
}

// decodeRound parses an encodeRound payload of the given magic, storing its
// trailer values through trailer; any other trailing byte is an error.
// Every count is validated against the bytes actually present before it
// sizes an allocation, so a truncated or hostile payload errors instead of
// over-allocating.
func decodeRound(magic byte, b []byte, trailer ...*int64) (round int, walks [][]entry, err error) {
	name := codecName(magic)
	if len(b) < 2 || b[0] != magic {
		return 0, nil, fmt.Errorf("%w: decode %s: not a %s payload", errCluster, name, name)
	}
	if b[1] != codecVersion {
		return 0, nil, fmt.Errorf("%w: decode %s: unsupported codec version %d", errCluster, name, b[1])
	}
	b = b[2:]
	r, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: decode %s: round: %v", errCluster, name, err)
	}
	if r > math.MaxInt32 {
		return 0, nil, fmt.Errorf("%w: decode %s: round %d overflows", errCluster, name, r)
	}
	count, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: decode %s: walk count: %v", errCluster, name, err)
	}
	// Each walk needs at least one count byte; each entry at least one
	// delta byte plus eight float bytes.
	if count > uint64(len(b)) {
		return 0, nil, fmt.Errorf("%w: decode %s: %d walks in %d bytes", errCluster, name, count, len(b))
	}
	walks = make([][]entry, count)
	for w := range walks {
		var c uint64
		c, b, err = readUvarint(b)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: decode %s: walk %d count: %v", errCluster, name, w, err)
		}
		if c > uint64(len(b))/9 {
			return 0, nil, fmt.Errorf("%w: decode %s: walk %d: %d entries in %d bytes", errCluster, name, w, c, len(b))
		}
		if c == 0 {
			continue
		}
		walk := make([]entry, c)
		prev := int32(0)
		for i := range walk {
			var delta uint64
			delta, b, err = readUvarint(b)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: decode %s: walk %d entry %d: %v", errCluster, name, w, i, err)
			}
			if delta > math.MaxInt32-uint64(prev) {
				return 0, nil, fmt.Errorf("%w: decode %s: walk %d entry %d: vertex overflows", errCluster, name, w, i)
			}
			if i > 0 && delta == 0 {
				return 0, nil, fmt.Errorf("%w: decode %s: walk %d entry %d: zero delta", errCluster, name, w, i)
			}
			prev += int32(delta)
			walk[i].V = prev
		}
		if len(b) < 8*len(walk) {
			return 0, nil, fmt.Errorf("%w: decode %s: walk %d: truncated floats", errCluster, name, w)
		}
		for i := range walk {
			walk[i].S = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*len(walk):]
		walks[w] = walk
	}
	for _, v := range trailer {
		var n int
		if *v, n = binary.Varint(b); n <= 0 {
			return 0, nil, fmt.Errorf("%w: decode %s: truncated trailer", errCluster, name)
		}
		b = b[n:]
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("%w: decode %s: %d trailing bytes", errCluster, name, len(b))
	}
	return int(r), walks, nil
}

// encodeShares encodes one round's frozen per-walk shares for one peer.
func encodeShares(round int, shares [][]entry) ([]byte, error) {
	return encodeRound(shareMagic, round, shares)
}

// decodeShares parses an encodeShares payload.
func decodeShares(b []byte) (round int, shares [][]entry, err error) {
	return decodeRound(shareMagic, b)
}

// encode encodes the advance request.
func (r advanceRequest) encode() ([]byte, error) {
	return encodeRound(advanceMagic, r.Round, r.Support)
}

// decodeAdvance parses an advance request payload.
func decodeAdvance(b []byte) (req advanceRequest, err error) {
	req.Round, req.Support, err = decodeRound(advanceMagic, b)
	return req, err
}

// encode encodes the advance reply, its timings as the trailer.
func (r advanceResponse) encode() ([]byte, error) {
	return encodeRound(advanceReplyMagic, r.Round, r.Support, r.T.FreezeNS, r.T.PullNS, r.T.GatherNS)
}

// decodeAdvanceReply parses an advance reply payload.
func decodeAdvanceReply(b []byte) (resp advanceResponse, err error) {
	resp.Round, resp.Support, err = decodeRound(advanceReplyMagic, b, &resp.T.FreezeNS, &resp.T.PullNS, &resp.T.GatherNS)
	return resp, err
}

// readUvarint is binary.Uvarint with explicit error reporting.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}
