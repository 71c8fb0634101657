package lz

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip compresses arbitrary input and requires exact recovery.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello hello hello hello"))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 500))
	f.Add(farRepeat(maxDist)) // over 64 KiB, a match at the farthest offset
	f.Fuzz(func(t *testing.T, src []byte) {
		var a Appender
		comp := a.Compress(nil, src)
		dst := make([]byte, len(src))
		if err := Decompress(dst, comp); err != nil {
			t.Fatalf("decompress own output: %v", err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatal("round trip mismatch")
		}
	})
}

// FuzzDecompress feeds arbitrary streams to the decoder with a range of
// declared sizes; it must either fill dst exactly or fail with
// ErrCorrupt — never panic and never write outside dst.
func FuzzDecompress(f *testing.F) {
	var a Appender
	f.Add([]byte{0x00}, uint16(0))
	f.Add(a.Compress(nil, bytes.Repeat([]byte("abc"), 100)), uint16(300))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(512))
	f.Fuzz(func(t *testing.T, src []byte, ulen uint16) {
		dst := make([]byte, int(ulen))
		if err := Decompress(dst, src); err != nil && err != ErrCorrupt {
			t.Fatalf("unexpected error class: %v", err)
		}
	})
}
