package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary round codec: the wire form of every per-round message — the
// shares one shard freezes for one peer (shard → shard), the owned support
// the driver routes to a shard (advance request), the shard's next-step
// support (advance reply) and a shard's failed round (error). The first
// three carry, per walk, sparse (vertex, value) entries in ascending vertex
// order. Layout, integers LEB128 varints in their shortest form (unsigned,
// except the reply's signed timings), floats little-endian IEEE 754:
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
// An error payload is 0xC8 0x01, a uvarint HTTP status the failure would
// have answered with, and its message (at most maxErrorText bytes).
//
// Delta coding leans on an invariant every sender guarantees: entries are
// emitted in ascending vertex order (boundary lists, owned lists and
// support scans all ascend), so every delta after the first is ≥ 1 and
// small — typically one or two bytes against the 8-byte float it labels.
// The float bits cross the wire verbatim, so the codec is numerically exact
// and the bit-identity contract of congest.FloodTransport survives. Every
// payload travels in one frame on a link (link.go):
//
//	byte    session id length (1 to maxSessionID)
//	bytes   session id
//	uint32  payload length, big-endian
//	bytes   payload
//
// The receiver of a shares frame counts its size as the measured wire load
// of that machine link for the round.
const (
	shareMagic        = 0xC5
	advanceMagic      = 0xC6
	advanceReplyMagic = 0xC7
	errorMagic        = 0xC8
	codecVersion      = 0x01

	// maxSessionID bounds a session id, so a frame header fits a fixed
	// buffer; frameOverhead is the header's size besides the id.
	maxSessionID  = 64
	frameOverhead = 1 + 4
	// maxErrorText bounds an error frame's message.
	maxErrorText = 512
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
		if *v, n = binary.Varint(b); n <= 0 || n > 1 && b[n-1] == 0 {
			return 0, nil, fmt.Errorf("%w: decode %s: truncated or overlong trailer", errCluster, name)
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

// encodeError encodes a failed round: the status clusterError maps err to,
// then its message, cut to maxErrorText bytes.
func encodeError(err error) []byte {
	text := err.Error()
	buf := binary.AppendUvarint([]byte{errorMagic, codecVersion}, uint64(errStatus(err)))
	return append(buf, text[:min(len(text), maxErrorText)]...)
}

// decodeError parses an encodeError payload.
func decodeError(b []byte) (*remoteError, error) {
	if len(b) > 2 && b[0] == errorMagic && b[1] == codecVersion {
		if status, msg, err := readUvarint(b[2:]); err == nil && status <= 999 && len(msg) <= maxErrorText {
			return &remoteError{status: int(status), msg: string(msg)}, nil
		}
	}
	return nil, fmt.Errorf("%w: decode error: malformed error payload", errCluster)
}

// remoteError is a shard's failed round as its error frame reports it.
type remoteError struct {
	status int // the HTTP status clusterError maps the failure to
	msg    string
}

func (e *remoteError) Error() string { return e.msg }

// appendFrame appends one frame carrying payload for session sid.
func appendFrame(dst []byte, sid string, payload []byte) []byte {
	dst = append(append(dst, byte(len(sid))), sid...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// readFrameHead reads a frame's session id and payload length, leaving r at
// the payload, which the caller bounds before it reads.
func readFrameHead(r io.Reader) (sid string, size uint32, err error) {
	var head [maxSessionID + frameOverhead]byte
	if _, err := io.ReadFull(r, head[:1]); err != nil {
		return "", 0, err
	}
	n := int(head[0])
	if n == 0 || n > maxSessionID {
		return "", 0, fmt.Errorf("%w: frame session id of %d bytes", errCluster, n)
	}
	if _, err := io.ReadFull(r, head[1:n+frameOverhead]); err != nil {
		return "", 0, err
	}
	return string(head[1 : n+1]), binary.BigEndian.Uint32(head[n+1:]), nil
}

// readUvarint is binary.Uvarint with explicit error reporting, refusing
// non-shortest encodings.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || n > 1 && b[n-1] == 0 {
		return 0, nil, fmt.Errorf("truncated or overlong varint")
	}
	return v, b[n:], nil
}
