// Package lz implements a dependency-free byte-oriented LZ77 codec used
// by the METR-3 columnar trace container. The format is LZ4-flavoured:
// a stream of sequences, each a token byte whose high nibble is the
// literal length and low nibble the match length minus minMatch, with
// 255-run extension bytes for either field, the literals themselves,
// and a 2-byte little-endian match offset. The final sequence carries
// literals only (no offset). Decompression writes into a caller-sized
// destination and fails closed: any read or write that would leave the
// declared bounds returns ErrCorrupt, so a hostile block can never make
// the decoder allocate or write beyond what the container header
// already promised.
package lz

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ErrCorrupt is returned when a compressed block is malformed: a
// truncated sequence, an offset pointing before the start of output, or
// a declared output size that the stream does not exactly produce.
var ErrCorrupt = errors.New("lz: corrupt block")

const (
	minMatch = 4      // shortest encodable match
	maxDist  = 0xffff // 2-byte offsets
	hashBits = 16
	hashLen  = 1 << hashBits
)

// hash4 maps a 4-byte sequence to a table slot. The multiplier is the
// usual Knuth/Fibonacci constant truncated to 32 bits; the shift keeps
// the slot provably inside the fixed-size table, so indexing it needs no
// bounds check.
func hash4(v uint32) uint32 {
	return (v * 2654435761) >> (32 - hashBits)
}

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func load64(b []byte, i int) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// Appender is the subset of compressor state that callers may reuse
// across blocks to keep the hash table allocation out of the hot path.
type Appender struct {
	table [hashLen]int32 // candidate position + 1; 0 = empty
}

// Compress appends the compressed form of src to dst and returns the
// extended slice. The same Appender must not be used concurrently.
//
// The match finder is LZ4's greedy one: a single-entry hash table of
// 4-byte sequences, a miss loop that probes four positions from each
// 8-byte load, matches extended eight bytes at a time, and after a match
// only its second and second-to-last positions entered into the table.
// Which matches it picks is not part of the stream format; any stream
// Decompress accepts is a valid encoding.
func (a *Appender) Compress(dst, src []byte) []byte {
	clear(a.table[:])
	n := len(src)
	if n == 0 {
		return dst
	}
	var (
		pos     int // next byte to examine
		litHead int // start of pending literal run
	)
	// Leave a 12-byte tail uncompressed so the 8-byte loads below never
	// need per-byte bounds checks near the end of the block.
	limit := n - 12
	for pos < limit {
		// Probe pos..pos+3 from one load: each position enters the table
		// and takes the slot's previous occupant as its candidate.
		v := load64(src, pos)
		cand := a.probe(src, pos, uint32(v))
		for k := 1; k < 4 && cand < 0; k++ {
			if pos++; pos == limit {
				break
			}
			cand = a.probe(src, pos, uint32(v>>(8*k)))
		}
		if cand < 0 {
			pos++
			continue
		}
		// Extend the match forward, eight bytes at a time while a whole
		// word fits before limit, then byte by byte up to it (a word that
		// differs leaves mlen on the differing byte, which stops the byte
		// loop at once).
		mlen := minMatch
		for pos+mlen+8 <= limit {
			if x := load64(src, cand+mlen) ^ load64(src, pos+mlen); x != 0 {
				mlen += bits.TrailingZeros64(x) >> 3
				break
			}
			mlen += 8
		}
		for pos+mlen < limit && src[cand+mlen] == src[pos+mlen] {
			mlen++
		}
		dst = appendSeq(dst, src[litHead:pos], pos-cand, mlen)
		end := pos + mlen
		a.table[hash4(load32(src, pos+1))] = int32(pos+1) + 1
		a.table[hash4(load32(src, end-2))] = int32(end-2) + 1
		pos = end
		litHead = pos
	}
	// Final literal-only sequence.
	return appendSeq(dst, src[litHead:], 0, 0)
}

// probe enters position p, whose 4-byte sequence is seq, into the table
// and returns the slot's previous occupant when it is a match candidate:
// in range and holding the same four bytes. Otherwise it returns -1.
func (a *Appender) probe(src []byte, p int, seq uint32) int {
	slot := hash4(seq)
	c := int(a.table[slot]) - 1
	a.table[slot] = int32(p) + 1
	if c < 0 || p-c > maxDist || load32(src, c) != seq {
		return -1
	}
	return c
}

// appendSeq encodes one sequence: token, length extensions, literals,
// and (when mlen > 0) the 2-byte offset. mlen == 0 marks the
// terminal literal-only sequence.
func appendSeq(dst, lits []byte, dist, mlen int) []byte {
	llen := len(lits)
	tok := byte(0)
	if llen < 15 {
		tok = byte(llen) << 4
	} else {
		tok = 15 << 4
	}
	if mlen > 0 {
		m := mlen - minMatch
		if m < 15 {
			tok |= byte(m)
		} else {
			tok |= 15
		}
	}
	dst = append(dst, tok)
	if llen >= 15 {
		dst = appendExt(dst, llen-15)
	}
	dst = append(dst, lits...)
	if mlen > 0 {
		dst = append(dst, byte(dist), byte(dist>>8))
		if m := mlen - minMatch; m >= 15 {
			dst = appendExt(dst, m-15)
		}
	}
	return dst
}

func appendExt(dst []byte, v int) []byte {
	for v >= 255 {
		dst = append(dst, 255)
		v -= 255
	}
	return append(dst, byte(v))
}

// Decompress fills dst exactly from the compressed stream src. dst must
// be sized to the block's declared uncompressed length; any mismatch,
// truncation, or out-of-range offset returns ErrCorrupt. dst is the
// only buffer written, so decompression cost is bounded by len(dst) +
// len(src) regardless of stream contents. It is a Decoder run to the
// terminal sequence in one call.
func Decompress(dst, src []byte) error {
	var z Decoder
	z.Reset(dst, src)
	// No sequence boundary lies past len(dst), so only the terminal
	// sequence (or an error) ends this fill.
	return z.Fill(len(dst) + 1)
}

// Decoder decompresses one stream in stages, for a reader that needs only
// a prefix of the output: Fill writes dst up to a point and can be called
// again to go further, and Walk checks the rest of the stream without
// writing it. Fill and Walk together accept exactly the streams Decompress
// accepts, whatever the points filled to, and the bytes Fill writes are
// Decompress's bytes. The zero value decodes nothing; Reset starts a
// stream.
type Decoder struct {
	dst, src []byte
	d, s     int  // next byte of dst to write, of src to read
	done     bool // the terminal sequence is read
	err      error
}

// Reset starts decoding src into dst, which is sized to the declared
// output length as for Decompress.
func (z *Decoder) Reset(dst, src []byte) {
	*z = Decoder{dst: dst, src: src, done: len(src) == 0 && len(dst) == 0}
}

// Filled is how many leading bytes of dst are written.
func (z *Decoder) Filled() int { return z.d }

// Fill decompresses until at least need bytes of dst are written, stopping
// at the first sequence boundary at or past need, or at the end of the
// stream. It returns ErrCorrupt for a stream Decompress would refuse in
// what it decoded, and every later call returns it too. Fill after Walk
// writes nothing more.
func (z *Decoder) Fill(need int) error {
	if z.err != nil || z.done || z.d >= need {
		return z.err
	}
	z.d, z.s, z.done, z.err = decode(z.dst, z.src, z.d, z.s, need)
	return z.err
}

// Walk parses the rest of the stream, writing nothing, with exactly the
// checks Decompress applies: offsets within what the stream has produced
// so far, lengths within len(dst), and a terminal sequence that ends the
// stream with dst exactly full. It costs a pass over the remaining
// sequence headers, not over the bytes they would write.
func (z *Decoder) Walk() error {
	if z.err != nil || z.done {
		return z.err
	}
	z.err = walk(len(z.dst), z.src, z.d, z.s)
	z.done = true
	return z.err
}

// decode is the one decode loop: it runs the stream src from sequence
// boundary s, with d bytes of dst written, until d >= need or the
// terminal sequence, and returns where it stopped and whether that was
// the terminal sequence.
func decode(dst, src []byte, d, s, need int) (int, int, bool, error) {
	for d < need {
		if s >= len(src) {
			return d, s, false, ErrCorrupt
		}
		tok := src[s]
		s++
		llen := int(tok >> 4)
		if llen == 15 {
			var err error
			llen, s, err = readExt(src, s, llen)
			if err != nil {
				return d, s, false, err
			}
		}
		if llen > len(src)-s || llen > len(dst)-d {
			return d, s, false, ErrCorrupt
		}
		copy(dst[d:], src[s:s+llen])
		d += llen
		s += llen
		if s == len(src) {
			// Terminal sequence: token must not promise a match.
			if tok&0x0f != 0 || d != len(dst) {
				return d, s, false, ErrCorrupt
			}
			return d, s, true, nil
		}
		if len(src)-s < 2 {
			return d, s, false, ErrCorrupt
		}
		dist := int(src[s]) | int(src[s+1])<<8
		s += 2
		mlen := int(tok & 0x0f)
		if mlen == 15 {
			var err error
			mlen, s, err = readExt(src, s, mlen)
			if err != nil {
				return d, s, false, err
			}
		}
		mlen += minMatch
		if dist == 0 || dist > d || mlen > len(dst)-d {
			return d, s, false, ErrCorrupt
		}
		if dist >= mlen {
			// Non-overlapping match. Short matches dominate generic
			// data, so copy them with a pair of fixed-width loads and
			// stores (the second pair overlaps the first rather than
			// overshooting past d+mlen) instead of paying a memmove
			// call per match.
			m := d - dist
			switch {
			case mlen <= 8:
				x := binary.LittleEndian.Uint32(dst[m:])
				y := binary.LittleEndian.Uint32(dst[m+mlen-4:])
				binary.LittleEndian.PutUint32(dst[d:], x)
				binary.LittleEndian.PutUint32(dst[d+mlen-4:], y)
			case mlen <= 16:
				x := binary.LittleEndian.Uint64(dst[m:])
				y := binary.LittleEndian.Uint64(dst[m+mlen-8:])
				binary.LittleEndian.PutUint64(dst[d:], x)
				binary.LittleEndian.PutUint64(dst[d+mlen-8:], y)
			default:
				copy(dst[d:d+mlen], dst[m:])
			}
			d += mlen
		} else {
			// Overlapping match: a run with period dist.
			start := d - dist
			end := d + mlen
			switch {
			case end-start < 16:
				// Too short for any vector trick; a bounded byte loop
				// beats a memmove call.
				for d < end {
					dst[d] = dst[d-dist]
					d++
				}
			case dist <= 8:
				// Small period: seed one 8-byte pattern window, then
				// lay it down with 8-byte stores advanced by the
				// period (or by 8 when the period divides 8), each
				// phase-aligned to the run so overlapping stores write
				// identical bytes. Stores are bounded by end, so the
				// run never spills past the match even when dst is a
				// shared arena window.
				for d < start+8 {
					dst[d] = dst[d-dist]
					d++
				}
				v := binary.LittleEndian.Uint64(dst[start:])
				step := dist
				if 8%dist == 0 {
					step = 8
				}
				w := start + step
				for w+8 <= end {
					binary.LittleEndian.PutUint64(dst[w:], v)
					w += step
				}
				d = w - step + 8
				for d < end {
					dst[d] = dst[d-dist]
					d++
				}
			default:
				// Wide period: seed the window to a multiple of the
				// period, then replicate by doubling. Source [start:d]
				// ends exactly where the destination begins, so each
				// copy is non-overlapping and the window doubles per
				// pass while preserving the run's phase.
				if dist < 32 {
					seedEnd := start + (31/dist+1)*dist
					if seedEnd > end {
						seedEnd = end
					}
					for d < seedEnd {
						dst[d] = dst[d-dist]
						d++
					}
				}
				for d < end {
					d += copy(dst[d:end], dst[start:d])
				}
			}
		}
	}
	return d, s, false, nil
}

// walk is decode with nothing written: the same grammar and the same
// checks, over an output of n bytes of which d are already produced.
func walk(n int, src []byte, d, s int) error {
	for {
		if s >= len(src) {
			return ErrCorrupt
		}
		tok := src[s]
		s++
		llen := int(tok >> 4)
		if llen == 15 {
			var err error
			if llen, s, err = readExt(src, s, llen); err != nil {
				return err
			}
		}
		if llen > len(src)-s || llen > n-d {
			return ErrCorrupt
		}
		d += llen
		s += llen
		if s == len(src) {
			if tok&0x0f != 0 || d != n {
				return ErrCorrupt
			}
			return nil
		}
		if len(src)-s < 2 {
			return ErrCorrupt
		}
		dist := int(src[s]) | int(src[s+1])<<8
		s += 2
		mlen := int(tok & 0x0f)
		if mlen == 15 {
			var err error
			if mlen, s, err = readExt(src, s, mlen); err != nil {
				return err
			}
		}
		mlen += minMatch
		if dist == 0 || dist > d || mlen > n-d {
			return ErrCorrupt
		}
		d += mlen
	}
}

// readExt accumulates 255-run extension bytes onto base.
func readExt(src []byte, s, base int) (int, int, error) {
	for {
		if s >= len(src) {
			return 0, 0, ErrCorrupt
		}
		b := src[s]
		s++
		base += int(b)
		if base < 0 { // overflow from a hostile run
			return 0, 0, ErrCorrupt
		}
		if b != 255 {
			return base, s, nil
		}
	}
}
