package ecc

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// allKeys returns every registry key in sorted order, engine-only entries
// included.
func allKeys() []string {
	var keys []string
	for k := range reg() {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// FuzzCorrect: for any registry scheme, a seeded line and a list of
// (shard, offset, xor-mask) edits that keep the codeword's shape, Correct
// never panics; two calls on clones of the edited codeword return the same
// bytes, report and error-ness; a reported chip list is strictly
// ascending; and an unedited codeword comes back exactly.
func FuzzCorrect(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{})
	f.Add(uint8(1), int64(2), []byte{0, 0, 0xFF})
	f.Add(uint8(4), int64(3), []byte{1, 5, 0x80, 2, 9, 0x01})
	f.Add(uint8(12), int64(4), []byte{3, 0, 0xA5, 3, 1, 0x5A, 7, 2, 0x33})
	keys := allKeys()
	f.Fuzz(func(t *testing.T, key uint8, seed int64, edits []byte) {
		k := keys[int(key)%len(keys)]
		s, err := Build(k, "")
		if err != nil {
			t.Fatal(err)
		}
		d := randLine(rand.New(rand.NewSource(seed)), s)
		cw, corr := s.Encode(d)
		for i := 0; i+2 < len(edits); i += 3 {
			shard := cw.Shards[int(edits[i])%len(cw.Shards)]
			shard[int(edits[i+1])%len(shard)] ^= edits[i+2]
		}
		got1, rep1, err1 := s.Correct(cw.Clone(), slices.Clone(corr))
		got2, rep2, err2 := s.Correct(cw.Clone(), slices.Clone(corr))
		if (err1 == nil) != (err2 == nil) || !bytes.Equal(got1, got2) {
			t.Fatalf("%s: two calls disagree: err %v vs %v, bytes equal %v", k, err1, err2, bytes.Equal(got1, got2))
		}
		if clean, _ := s.Encode(d); slices.EqualFunc(cw.Shards, clean.Shards, bytes.Equal) && (err1 != nil || !bytes.Equal(got1, d)) {
			t.Fatalf("%s: unedited codeword did not round-trip (err=%v)", k, err1)
		}
		if err1 != nil {
			return
		}
		if !slices.Equal(rep1.CorrectedChips, rep2.CorrectedChips) || rep1.UsedErasure != rep2.UsedErasure {
			t.Fatalf("%s: two calls report %+v and %+v", k, rep1, rep2)
		}
		for i := 1; i < len(rep1.CorrectedChips); i++ {
			if rep1.CorrectedChips[i] <= rep1.CorrectedChips[i-1] {
				t.Fatalf("%s: CorrectedChips %v not strictly ascending", k, rep1.CorrectedChips)
			}
		}
	})
}
