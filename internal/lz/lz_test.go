package lz

import (
	"bytes"
	"testing"

	"netenergy/internal/rng"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	var a Appender
	comp := a.Compress(nil, src)
	dst := make([]byte, len(src))
	if err := Decompress(dst, comp); err != nil {
		t.Fatalf("decompress (%d bytes -> %d): %v", len(src), len(comp), err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dst))
	}
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
	roundTrip(t, []byte{})
}

func TestRoundTripSmall(t *testing.T) {
	roundTrip(t, []byte("a"))
	roundTrip(t, []byte("hello world"))
	roundTrip(t, []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"))
}

func TestRoundTripRepetitive(t *testing.T) {
	var b bytes.Buffer
	for i := 0; i < 4000; i++ {
		b.WriteString("packet-flow-record-")
		b.WriteByte(byte(i % 7))
	}
	src := b.Bytes()
	var a Appender
	comp := a.Compress(nil, src)
	if len(comp) >= len(src)/4 {
		t.Fatalf("repetitive data barely compressed: %d -> %d", len(src), len(comp))
	}
	roundTrip(t, src)
}

func TestRoundTripIncompressible(t *testing.T) {
	r := rng.New(7)
	src := make([]byte, 64<<10)
	for i := range src {
		src[i] = byte(r.Intn(256))
	}
	roundTrip(t, src)
}

func TestRoundTripLongRuns(t *testing.T) {
	// Long literal runs (> 15+255) and long matches exercise the
	// 255-run extension encoding on both fields.
	r := rng.New(11)
	lit := make([]byte, 5000)
	for i := range lit {
		lit[i] = byte(r.Intn(256))
	}
	src := append(append([]byte{}, lit...), bytes.Repeat([]byte{0xAB}, 9000)...)
	src = append(src, lit...)
	roundTrip(t, src)
}

func TestRoundTripRandomizedSeeds(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		r := rng.New(seed)
		n := r.Intn(20000)
		src := make([]byte, n)
		mode := r.Intn(3)
		for i := range src {
			switch mode {
			case 0:
				src[i] = byte(r.Intn(256))
			case 1:
				src[i] = byte(r.Intn(4))
			default:
				src[i] = byte(i % (1 + r.Intn(40)))
			}
		}
		roundTrip(t, src)
	}
}

// seq is one parsed sequence of a compressed stream; mlen == 0 marks the
// terminal literal-only sequence.
type seq struct{ lits, dist, mlen int }

// parseSeqs walks a stream the compressor wrote, so a test can say which
// matches it chose. It trusts its input: Decompress is the checking parser.
func parseSeqs(comp []byte) []seq {
	ext := func(s, v int) (int, int) {
		for {
			b := int(comp[s])
			s++
			v += b
			if b != 255 {
				return s, v
			}
		}
	}
	var out []seq
	for s := 0; s < len(comp); {
		tok := comp[s]
		s++
		lits := int(tok >> 4)
		if lits == 15 {
			s, lits = ext(s, lits)
		}
		s += lits
		if s == len(comp) {
			return append(out, seq{lits, 0, 0})
		}
		dist := int(comp[s]) | int(comp[s+1])<<8
		s += 2
		mlen := int(tok & 15)
		if mlen == 15 {
			s, mlen = ext(s, mlen)
		}
		out = append(out, seq{lits, dist, mlen + minMatch})
	}
	return out
}

// randBytes returns n bytes from seed, none of them zero.
func randBytes(seed uint64, n int) []byte {
	r := rng.New(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(1 + r.Intn(255))
	}
	return b
}

// farRepeat is a 16-byte marker, zeros up to dist, the marker again, and a
// random tail: the zero run is one long match that leaves the marker's
// table slot alone, so the only way to the second marker is dist back.
func farRepeat(dist int) []byte {
	mark := randBytes(1, 16)
	src := make([]byte, dist, dist+64)
	copy(src, mark)
	src = append(src, mark...)
	return append(src, randBytes(2, 48)...)
}

// TestMaxDistanceEdge: a repeat exactly maxDist back is found and encoded;
// one byte further it cannot be, and must go out as literals.
func TestMaxDistanceEdge(t *testing.T) {
	var a Appender
	for _, dist := range []int{maxDist, maxDist + 1} {
		src := farRepeat(dist)
		roundTrip(t, src)
		found := false
		for _, q := range parseSeqs(a.Compress(nil, src)) {
			found = found || q.dist == maxDist
		}
		if want := dist == maxDist; found != want {
			t.Errorf("repeat at distance %d over %d bytes: match at distance %d found=%v, want %v",
				dist, len(src), maxDist, found, want)
		}
	}
}

// TestEveryShortLength covers each length through the 12-byte literal
// tail and the first few four-position probes, which run up against limit
// there, with random, constant and period-3 contents. No match may start
// inside the tail.
func TestEveryShortLength(t *testing.T) {
	var a Appender
	for n := 0; n <= 48; n++ {
		rnd := randBytes(uint64(n), n)
		flat := bytes.Repeat([]byte{7}, n)
		per := make([]byte, n)
		for i := range per {
			per[i] = byte(i % 3)
		}
		for _, src := range [][]byte{rnd, flat, per} {
			roundTrip(t, src)
			at := 0
			for _, q := range parseSeqs(a.Compress(nil, src)) {
				at += q.lits
				if q.mlen > 0 && at >= n-12 {
					t.Fatalf("%d bytes %v: a match starts at %d, inside the 12-byte tail", n, src, at)
				}
				at += q.mlen
			}
		}
	}
}

// TestPeriodicRuns: a run of period p is one overlapping match at distance
// p, whatever p; each must round-trip and shrink to a few sequences.
func TestPeriodicRuns(t *testing.T) {
	var a Appender
	for p := 1; p <= 16; p++ {
		unit := randBytes(uint64(100+p), p)
		src := append(randBytes(3, 20), bytes.Repeat(unit, 4000/p)...)
		src = append(src, randBytes(4, 20)...)
		roundTrip(t, src)
		if comp := a.Compress(nil, src); len(comp) > 100 {
			t.Errorf("period %d: %d bytes compress to %d", p, len(src), len(comp))
		}
	}
}

// TestMatchEndsAtLimit: a repeat of m bytes that runs on into the literal
// tail stops exactly at limit (n-12), whether the word loop or the byte
// loop gets it there, and the stream ends with the 12 tail bytes as
// literals. One that meets a differing byte first stops exactly there, at
// every position of that byte within the 8-byte word.
func TestMatchEndsAtLimit(t *testing.T) {
	var a Appender
	for m := 16; m <= 40; m++ {
		r := randBytes(uint64(m), m)
		pair := append(append([]byte{}, r...), r...)
		for _, tc := range []struct {
			tail []byte
			want []seq
		}{
			{r[:12], []seq{{m, m, m}, {12, 0, 0}}},
			{append([]byte{r[0] ^ 0x80}, randBytes(9, 20)...), []seq{{m, m, m}, {21, 0, 0}}},
		} {
			src := append(append([]byte{}, pair...), tc.tail...)
			roundTrip(t, src)
			got := parseSeqs(a.Compress(nil, src))
			if len(got) != 2 || got[0] != tc.want[0] || got[1] != tc.want[1] {
				t.Errorf("repeat of %d bytes, then %d more: sequences %v, want %v", m, len(tc.tail), got, tc.want)
			}
		}
	}
}

// corruptStreams are malformed streams, each with the output size it
// declares.
var corruptStreams = []struct {
	name string
	dst  int
	src  []byte
}{
	{"empty stream nonzero dst", 4, nil},
	{"truncated literals", 8, []byte{0x50, 'a', 'b'}},
	{"literal overrun dst", 2, []byte{0x50, 'a', 'b', 'c', 'd', 'e'}},
	{"match with zero offset", 8, []byte{0x40, 'a', 'b', 'c', 'd', 0, 0, 0x00}},
	{"offset before start", 8, []byte{0x11, 'a', 0xff, 0xff, 0x00}},
	{"match overruns dst", 5, []byte{0x4f, 'a', 'b', 'c', 'd', 1, 0, 200, 0x00}},
	{"terminal with match nibble", 4, []byte{0x41, 'a', 'b', 'c', 'd'}},
	{"short output", 16, []byte{0x20, 'a', 'b'}},
	{"truncated offset", 8, []byte{0x11, 'a', 0x01}},
	{"truncated extension", 8, []byte{0xf1}},
	{"extension overflow", 8, append([]byte{0xf0}, bytes.Repeat([]byte{255}, 1<<20)...)},
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	for _, tc := range corruptStreams {
		dst := make([]byte, tc.dst)
		if err := Decompress(dst, tc.src); err != ErrCorrupt {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestCompressAllocFree(t *testing.T) {
	r := rng.New(3)
	src := make([]byte, 32<<10)
	for i := range src {
		src[i] = byte(r.Intn(8))
	}
	var a Appender
	comp := a.Compress(nil, src)
	dst := make([]byte, len(src))
	buf := comp[:0]
	var z Decoder
	allocs := testing.AllocsPerRun(100, func() {
		buf = a.Compress(buf[:0], src)
		if err := Decompress(dst, buf); err != nil {
			t.Fatal(err)
		}
		// The staged decode: half the output, then a parse of the rest.
		z.Reset(dst, buf)
		if err := z.Fill(len(dst) / 2); err != nil {
			t.Fatal(err)
		}
		if err := z.Walk(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state compress+decompress allocates: %.1f allocs/op", allocs)
	}
}

func BenchmarkCompress(b *testing.B) {
	r := rng.New(3)
	src := make([]byte, 256<<10)
	for i := range src {
		src[i] = byte(r.Intn(16))
	}
	var a Appender
	buf := a.Compress(nil, src)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = a.Compress(buf[:0], src)
	}
}

func BenchmarkDecompress(b *testing.B) {
	r := rng.New(3)
	src := make([]byte, 256<<10)
	for i := range src {
		src[i] = byte(r.Intn(16))
	}
	var a Appender
	comp := a.Compress(nil, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decompress(dst, comp); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecoderStages: filling a stream in steps writes what Decompress
// writes, each Fill stopping at the first sequence boundary at or past
// what it was asked for, and a walk over what is left accepts it without
// writing a byte.
func TestDecoderStages(t *testing.T) {
	src := randBytes(9, 1<<15)
	for i := 0; i < len(src); i += 512 {
		copy(src[i:i+64], src[:64]) // matches, so many sequence boundaries
	}
	var a Appender
	comp := a.Compress(nil, src)
	for _, step := range []int{1, 7, 100, 4096, len(src)} {
		dst := make([]byte, len(src))
		var z Decoder
		z.Reset(dst, comp)
		for need := 0; need < len(src)/2; need += step {
			if err := z.Fill(need); err != nil {
				t.Fatalf("step %d: fill to %d: %v", step, need, err)
			}
			if z.Filled() < need || !bytes.Equal(dst[:z.Filled()], src[:z.Filled()]) {
				t.Fatalf("step %d: fill to %d wrote %d bytes, not the stream's", step, need, z.Filled())
			}
		}
		filled := z.Filled()
		if err := z.Walk(); err != nil {
			t.Fatalf("step %d: walk: %v", step, err)
		}
		if z.Filled() != filled || !bytes.Equal(dst[filled:], make([]byte, len(dst)-filled)) {
			t.Fatalf("step %d: walk wrote past byte %d", step, filled)
		}
	}
}

// TestDecoderRefusesWhatDecompressRefuses: every corrupt stream of
// TestDecompressRejectsCorrupt is refused by a fill to nothing and a walk,
// and by a fill to the end.
func TestDecoderRefusesWhatDecompressRefuses(t *testing.T) {
	for _, tc := range corruptStreams {
		for _, need := range []int{0, tc.dst} {
			var z Decoder
			z.Reset(make([]byte, tc.dst), tc.src)
			err := z.Fill(need)
			if err == nil {
				err = z.Walk()
			}
			if err != ErrCorrupt {
				t.Errorf("%s: fill to %d, then walk: %v, want ErrCorrupt", tc.name, need, err)
			}
		}
	}
}
