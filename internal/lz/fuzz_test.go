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
// ErrCorrupt — never panic and never write outside dst. A Decoder filled
// to an arbitrary cut and walked the rest of the way must accept exactly
// the streams Decompress accepts, and then agree with it on the bytes
// through the cut.
func FuzzDecompress(f *testing.F) {
	var a Appender
	f.Add([]byte{0x00}, uint16(0), uint16(0))
	f.Add(a.Compress(nil, bytes.Repeat([]byte("abc"), 100)), uint16(300), uint16(150))
	f.Add(a.Compress(nil, randBytes(5, 2000)), uint16(2000), uint16(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(512), uint16(1))
	f.Fuzz(func(t *testing.T, src []byte, ulen, cut uint16) {
		dst := make([]byte, int(ulen))
		err := Decompress(dst, src)
		if err != nil && err != ErrCorrupt {
			t.Fatalf("unexpected error class: %v", err)
		}
		n := int(cut) % (len(dst) + 1)
		part := make([]byte, len(dst))
		var z Decoder
		z.Reset(part, src)
		zerr := z.Fill(n)
		if zerr == nil {
			zerr = z.Walk()
		}
		if zerr != err {
			t.Fatalf("fill to %d of %d, then walk: %v; Decompress: %v", n, len(dst), zerr, err)
		}
		if err == nil && (z.Filled() < n || !bytes.Equal(part[:n], dst[:n])) {
			t.Fatalf("fill to %d wrote %d bytes that differ from Decompress's", n, z.Filled())
		}
	})
}
