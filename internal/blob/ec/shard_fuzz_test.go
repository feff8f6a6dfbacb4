package ec

import (
	"bytes"
	"testing"
)

// FuzzDecodeShard: decodeShard never panics; whatever it accepts carries a
// well-formed header and re-encodes to a shard that decodes the same; and
// every header encodeShard writes, with a non-negative length and a 64-hex
// checksum, round-trips.
func FuzzDecodeShard(f *testing.F) {
	sum := testKey("payload")
	good := encodeShard(4, 2, 1, 14, sum, []byte("body"))
	f.Add(good, 4, 2, 1, uint32(14), []byte("body"))
	f.Add(good[:len(shardMagic)+3], 5, 1, 0, uint32(3), []byte("x"))
	f.Add([]byte(shardMagic+" 4 2 1 -1 "+sum+"\nbody"), 1, 1, 0, uint32(0), []byte{})
	f.Add([]byte(shardMagic+" 99999999999999999999 2 1 1 "+sum+"\n"), -3, 0, 7, uint32(1<<31), []byte("\n"))
	f.Add([]byte("\n"), 0, 0, 0, uint32(0), []byte(nil))
	f.Fuzz(func(t *testing.T, raw []byte, k, m, idx int, plen uint32, body []byte) {
		if h, b, ok := decodeShard(raw); ok {
			if h.plen < 0 || len(h.sum) != 64 {
				t.Fatalf("accepted header %+v from %q", h, raw)
			}
			h2, b2, ok2 := decodeShard(encodeShard(h.k, h.m, h.idx, h.plen, h.sum, b))
			if !ok2 || h2 != h || !bytes.Equal(b2, b) {
				t.Fatalf("re-encoded %+v does not decode the same: ok=%v %+v", h, ok2, h2)
			}
		}
		want := shardHeader{k: k, m: m, idx: idx, plen: int(plen), sum: testKey(string(body))}
		h, b, ok := decodeShard(encodeShard(want.k, want.m, want.idx, want.plen, want.sum, body))
		if !ok || h != want || !bytes.Equal(b, body) {
			t.Fatalf("round trip of %+v: ok=%v got %+v body %q", want, ok, h, b)
		}
	})
}
