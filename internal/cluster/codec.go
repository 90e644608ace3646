package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The binary share codec: the wire form of what one shard freezes for one
// peer for one round — per walk, the shares p(v)·(1/d(v)) of its boundary
// vertices toward that peer whose mass is non-zero. The puller counts the
// encoded size as the measured wire load of that machine link for the
// round. Layout, all integers unsigned LEB128 varints, floats
// little-endian IEEE 754:
//
//	byte    0xC5            magic
//	byte    0x01            version
//	uvarint round
//	uvarint walk count
//	per walk:
//	  uvarint entry count c
//	  c × uvarint          vertex deltas: first = v₀, then vᵢ − vᵢ₋₁
//	  c × 8 bytes          float64 bits of the shares, same order
//
// Delta coding leans on an invariant the freeze path already guarantees:
// shares are emitted in the boundary list's order, which is ascending by
// vertex id, so every delta after the first is ≥ 1 and small — typically
// one or two bytes against the 8-byte float it labels. The float bits
// cross the wire verbatim, so the codec is numerically exact and the
// bit-identity contract of congest.FloodTransport survives.
const (
	shareMagic   = 0xC5
	shareVersion = 0x01

	// shareContentType names the codec on the wire; the version is part of
	// the name so a future layout change is a new content type, not a parse
	// ambiguity.
	shareContentType = "application/x-cdrw-shares-v1"
)

// encodeShares encodes one round's per-walk share entries. Entries within a
// walk must be in strictly ascending vertex order (the freeze invariant);
// violations are reported rather than silently mis-encoded.
func encodeShares(round int, shares [][]entry) ([]byte, error) {
	size := 2 + binary.MaxVarintLen64*2
	for _, walk := range shares {
		size += binary.MaxVarintLen64 + len(walk)*(binary.MaxVarintLen32+8)
	}
	buf := make([]byte, 2, size)
	buf[0], buf[1] = shareMagic, shareVersion
	buf = binary.AppendUvarint(buf, uint64(round))
	buf = binary.AppendUvarint(buf, uint64(len(shares)))
	for w, walk := range shares {
		buf = binary.AppendUvarint(buf, uint64(len(walk)))
		prev := int32(0)
		for i, e := range walk {
			if i > 0 && e.V <= prev {
				return nil, fmt.Errorf("%w: encode shares: walk %d entry %d: vertex %d after %d breaks ascending order", errCluster, w, i, e.V, prev)
			}
			if e.V < 0 {
				return nil, fmt.Errorf("%w: encode shares: walk %d entry %d: negative vertex %d", errCluster, w, i, e.V)
			}
			buf = binary.AppendUvarint(buf, uint64(e.V-prev))
			prev = e.V
		}
		for _, e := range walk {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.S))
		}
	}
	return buf, nil
}

// decodeShares parses an encodeShares payload. Every count is validated
// against the bytes actually present before it sizes an allocation, so a
// truncated or hostile payload errors instead of over-allocating.
func decodeShares(b []byte) (round int, shares [][]entry, err error) {
	if len(b) < 2 || b[0] != shareMagic {
		return 0, nil, fmt.Errorf("%w: decode shares: not a share payload", errCluster)
	}
	if b[1] != shareVersion {
		return 0, nil, fmt.Errorf("%w: decode shares: unsupported codec version %d", errCluster, b[1])
	}
	b = b[2:]
	r, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: decode shares: round: %v", errCluster, err)
	}
	walks, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: decode shares: walk count: %v", errCluster, err)
	}
	// Each walk needs at least one count byte; each entry at least one
	// delta byte plus eight float bytes.
	if walks > uint64(len(b)) {
		return 0, nil, fmt.Errorf("%w: decode shares: %d walks in %d bytes", errCluster, walks, len(b))
	}
	shares = make([][]entry, walks)
	for w := range shares {
		var count uint64
		count, b, err = readUvarint(b)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: decode shares: walk %d count: %v", errCluster, w, err)
		}
		if count > uint64(len(b))/9 {
			return 0, nil, fmt.Errorf("%w: decode shares: walk %d: %d entries in %d bytes", errCluster, w, count, len(b))
		}
		if count == 0 {
			continue
		}
		walk := make([]entry, count)
		prev := int32(0)
		for i := range walk {
			var delta uint64
			delta, b, err = readUvarint(b)
			if err != nil {
				return 0, nil, fmt.Errorf("%w: decode shares: walk %d entry %d: %v", errCluster, w, i, err)
			}
			v := int64(prev) + int64(delta)
			if v > math.MaxInt32 {
				return 0, nil, fmt.Errorf("%w: decode shares: walk %d entry %d: vertex %d overflows", errCluster, w, i, v)
			}
			if i > 0 && delta == 0 {
				return 0, nil, fmt.Errorf("%w: decode shares: walk %d entry %d: zero delta", errCluster, w, i)
			}
			walk[i].V = int32(v)
			prev = int32(v)
		}
		if len(b) < 8*len(walk) {
			return 0, nil, fmt.Errorf("%w: decode shares: walk %d: truncated floats", errCluster, w)
		}
		for i := range walk {
			walk[i].S = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		b = b[8*len(walk):]
		shares[w] = walk
	}
	if len(b) != 0 {
		return 0, nil, fmt.Errorf("%w: decode shares: %d trailing bytes", errCluster, len(b))
	}
	return int(r), shares, nil
}

// readUvarint is binary.Uvarint with explicit error reporting.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}
