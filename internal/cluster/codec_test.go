package cluster

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// codecPayload builds a representative frozen payload: sorted vertex ids
// with realistic gaps and full-precision share values.
func codecPayload(walks, entries int, seed int64) [][]entry {
	r := rand.New(rand.NewSource(seed))
	shares := make([][]entry, walks)
	for w := range shares {
		v := int32(0)
		out := make([]entry, 0, entries)
		for i := 0; i < entries; i++ {
			v += 1 + int32(r.Intn(40))
			out = append(out, entry{V: v, S: r.Float64() / float64(1+r.Intn(100))})
		}
		shares[w] = out
	}
	return shares
}

// TestCodecRoundTrip pins exactness: every vertex id and every float64 bit
// pattern survives encode/decode, including zero walks, empty walks, nil
// walks, denormals and negative zero.
func TestCodecRoundTrip(t *testing.T) {
	cases := [][][]entry{
		codecPayload(4, 50, 1),
		{},
		{nil, {}, {{V: 0, S: 1}}},
		{{{V: 0, S: math.Copysign(0, -1)}, {V: 1, S: math.SmallestNonzeroFloat64}, {V: math.MaxInt32, S: math.MaxFloat64}}},
	}
	for i, shares := range cases {
		b, err := encodeShares(7, shares)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		round, got, err := decodeShares(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if round != 7 {
			t.Fatalf("case %d: round %d, want 7", i, round)
		}
		if len(got) != len(shares) {
			t.Fatalf("case %d: %d walks, want %d", i, len(got), len(shares))
		}
		for w := range shares {
			if len(got[w]) != len(shares[w]) {
				t.Fatalf("case %d walk %d: %d entries, want %d", i, w, len(got[w]), len(shares[w]))
			}
			for j, e := range shares[w] {
				g := got[w][j]
				if g.V != e.V || math.Float64bits(g.S) != math.Float64bits(e.S) {
					t.Fatalf("case %d walk %d entry %d: got %v/%x, want %v/%x",
						i, w, j, g.V, math.Float64bits(g.S), e.V, math.Float64bits(e.S))
				}
			}
		}
	}
}

// TestCodecCompact pins the codec's wire claim: the binary encoding of a
// representative payload is at least 3x smaller than plain JSON carrying
// the identical data.
func TestCodecCompact(t *testing.T) {
	shares := codecPayload(8, 120, 42)
	bin, err := encodeShares(3, shares)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(struct {
		Round  int       `json:"round"`
		Shares [][]entry `json:"shares"`
	}{3, shares})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(js)) / float64(len(bin))
	if ratio < 3 {
		t.Fatalf("binary codec only %.2fx smaller than JSON (%d vs %d bytes), want >= 3x", ratio, len(bin), len(js))
	}
	t.Logf("binary %d bytes, JSON %d bytes (%.2fx)", len(bin), len(js), ratio)
}

// TestCodecRejectsUnordered pins the encoder guard for the delta-coding
// invariant: out-of-order or negative vertices are an error, not a silent
// mis-encoding.
func TestCodecRejectsUnordered(t *testing.T) {
	if _, err := encodeShares(1, [][]entry{{{V: 5, S: 1}, {V: 5, S: 2}}}); err == nil {
		t.Fatal("duplicate vertex accepted")
	}
	if _, err := encodeShares(1, [][]entry{{{V: 5, S: 1}, {V: 3, S: 2}}}); err == nil {
		t.Fatal("descending vertices accepted")
	}
	if _, err := encodeShares(1, [][]entry{{{V: -1, S: 1}}}); err == nil {
		t.Fatal("negative vertex accepted")
	}
}

// TestCodecRejectsMalformed walks the decoder's validation: wrong magic,
// wrong version, truncations at every byte, inflated counts and trailing
// garbage all error instead of panicking or over-allocating.
func TestCodecRejectsMalformed(t *testing.T) {
	valid, err := encodeShares(2, codecPayload(2, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeShares(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	bad := append([]byte{}, valid...)
	bad[0] ^= 0xFF
	if _, _, err := decodeShares(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}
	bad = append([]byte{}, valid...)
	bad[1] = 99
	if _, _, err := decodeShares(bad); err == nil {
		t.Fatal("unknown version accepted")
	}
	for cut := 1; cut < len(valid); cut++ {
		if _, _, err := decodeShares(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(valid))
		}
	}
	if _, _, err := decodeShares(append(append([]byte{}, valid...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A tiny payload claiming 2^40 entries must fail the bounds check, not
	// attempt the allocation.
	huge := []byte{shareMagic, shareVersion, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, _, err := decodeShares(huge); err == nil {
		t.Fatal("inflated entry count accepted")
	}
}
