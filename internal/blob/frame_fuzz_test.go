package blob

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame: DecodeFrame never panics, accepts exactly the frames
// EncodeFrame produces (so an accepted input re-encodes to itself),
// round-trips every payload, and rejects any frame with one byte changed;
// FramedSize predicts every frame's length.
func FuzzDecodeFrame(f *testing.F) {
	good := EncodeFrame([]byte(`{"result": 42}`))
	f.Add(good, []byte(`{"result": 42}`), uint(0), byte(1))
	f.Add(good[:20], []byte{}, uint(70), byte(0x80))
	f.Add(append([]byte("xxxxx1 "), good[7:]...), []byte("p"), uint(71), byte(0))
	f.Add([]byte{}, []byte("the full payload"), uint(1<<40), byte(0xff))
	f.Add([]byte(frameMagic+"\n"), []byte("\n\x00"), uint(6), byte(' '))
	f.Fuzz(func(t *testing.T, raw, payload []byte, pos uint, flip byte) {
		if got, ok := DecodeFrame(raw); ok && !bytes.Equal(EncodeFrame(got), raw) {
			t.Fatalf("DecodeFrame accepted a non-canonical frame %q", raw)
		}
		frame := EncodeFrame(payload)
		if int64(len(frame)) != FramedSize(len(payload)) {
			t.Fatalf("FramedSize(%d) = %d, frame is %d bytes", len(payload), FramedSize(len(payload)), len(frame))
		}
		got, ok := DecodeFrame(frame)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("round trip of %q: ok=%v got %q", payload, ok, got)
		}
		if flip == 0 {
			flip = 1
		}
		frame[pos%uint(len(frame))] ^= flip
		if _, ok := DecodeFrame(frame); ok {
			t.Fatalf("frame with byte %d flipped by %#x accepted", pos%uint(len(frame)), flip)
		}
	})
}
