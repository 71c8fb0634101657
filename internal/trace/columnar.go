package trace

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"netenergy/internal/lz"
)

// The METR-3 payload codec: a block's payload is its records as columns,
// compressed with the dependency-free byte-oriented LZ codec.
//
//	payload := LZ(columns)                                (internal/lz)
//	columns := types:count-bytes flags:count-bytes aux:count-bytes
//	           tsWidth:byte   tsDeltas:bitpacked          (zigzag of TS[i]-TS[i-1], anchored at firstTS)
//	           appWidth:byte  apps:bitpacked
//	           lenWidth:byte  lens:bitpacked              (payload / app-name byte counts)
//	           blob:bytes                                 (concatenated payloads and names, sum(lens) bytes)
//
// The payload is column-oriented: one slice per field, bitpacked where the
// values are narrow. A block therefore decodes straight into a RecordBatch
// (the in-memory columnar form) with no per-record varint walk, which is
// where the multi-GB/s decode rate comes from; the flat Record view is
// materialised only at the edges that still want rows.
//
// Every field of a hostile block is validated against the block's own
// declared ulen before any allocation is sized from it: column widths
// are capped, the three byte columns and three packed columns must fit
// inside ulen, and the blob must be exactly the declared lengths' sum.
// Malformed blocks fail as ErrCorrupt, never panic or over-allocate.

// zigzagEnc maps a signed delta to an unsigned value with small
// magnitudes staying small.
func zigzagEnc(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// zigzagDec inverts zigzagEnc.
func zigzagDec(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// packBits appends len(vals) values of w bits each to dst, little-endian
// bit order. Every value must be < 1<<w (w == 64 admits all). Values
// gather in a 64-bit accumulator that is appended a whole word at a time;
// the last partial word contributes only the bytes its bits reach.
func packBits(dst []byte, vals []uint64, w uint) []byte {
	if w == 0 {
		return dst
	}
	var acc uint64
	var held uint // bits of acc in use, always < 64
	for _, v := range vals {
		acc |= v << held
		if held += w; held >= 64 {
			dst = binary.LittleEndian.AppendUint64(dst, acc)
			held -= 64
			// The bits of v that did not fit; a shift by 64 yields 0.
			acc = v >> (w - held)
		}
	}
	for ; held > 0; held -= min(held, 8) {
		dst = append(dst, byte(acc))
		acc >>= 8
	}
	return dst
}

// unpackBits fills dst with len(dst) w-bit values from src, which must
// hold exactly (len(dst)*w+7)/8 bytes.
func unpackBits(dst []uint64, src []byte, w uint) {
	if w == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if w >= 58 {
		// Wide values cannot use the single-load fast path (shift+width
		// may exceed 64 bits); gather byte-wise.
		for i := range dst {
			dst[i] = gatherBits(src, i*int(w), w)
		}
		return
	}
	mask := uint64(1)<<w - 1
	bit := 0
	for i := range dst {
		bi := bit >> 3
		if bi+8 <= len(src) {
			dst[i] = binary.LittleEndian.Uint64(src[bi:]) >> uint(bit&7) & mask
		} else {
			dst[i] = gatherBits(src, bit, w)
		}
		bit += int(w)
	}
}

// gatherBits extracts w bits starting at bit offset bit from src,
// byte-at-a-time (used near the end of the packed region, where an
// 8-byte load would run past the slice).
func gatherBits(src []byte, bit int, w uint) uint64 {
	var v uint64
	var got uint
	for got < w {
		bi := bit >> 3
		sh := uint(bit & 7)
		take := 8 - sh
		if take > w-got {
			take = w - got
		}
		v |= uint64(src[bi]>>sh) & (1<<take - 1) << got
		got += uint(take)
		bit += int(take)
	}
	return v
}

// maxWidth returns the bit width needed for the widest value.
func maxWidth(vals []uint64) uint {
	w := 0
	for _, v := range vals {
		if n := bits.Len64(v); n > w {
			w = n
		}
	}
	return uint(w)
}

// appendColumns appends the uncompressed columnar image of b (anchored
// at first) to dst, reusing scratch for the value staging. It returns
// the extended dst and scratch.
func appendColumns(dst []byte, b *RecordBatch, first Timestamp, scratch []uint64) ([]byte, []uint64) {
	n := b.Len()
	for _, t := range b.Types {
		dst = append(dst, byte(t))
	}
	dst = append(dst, b.Flags...)
	dst = append(dst, b.Aux...)

	scratch = scratch[:0]
	prev := first
	for _, ts := range b.TS {
		scratch = append(scratch, zigzagEnc(int64(ts-prev)))
		prev = ts
	}
	w := maxWidth(scratch)
	dst = append(dst, byte(w))
	dst = packBits(dst, scratch, w)

	scratch = scratch[:0]
	for _, a := range b.App {
		scratch = append(scratch, uint64(a))
	}
	w = maxWidth(scratch)
	dst = append(dst, byte(w))
	dst = packBits(dst, scratch, w)

	scratch = scratch[:0]
	for i := 0; i < n; i++ {
		scratch = append(scratch, uint64(b.Off[i+1]-b.Off[i]))
	}
	w = maxWidth(scratch)
	dst = append(dst, byte(w))
	dst = packBits(dst, scratch, w)

	return append(dst, b.Blob...), scratch
}

// decodeColumns decodes the column region of the block z decompresses
// into raw (one block's uncompressed payload) — the three byte columns,
// then the three width-prefixed packed columns — into b, decompressing
// only as far as that region ends. b.Blob aliases the rest of raw, whose
// bytes are not yet written (see blockScratch.finishBlock); every check on
// the blob's size is made here all the same. u64 is scratch for unpacked
// values and is returned grown.
func decodeColumns(z *lz.Decoder, raw []byte, h blockHeader, b *RecordBatch, u64 []uint64) ([]uint64, error) {
	n := h.count
	b.Reset()
	if n == 0 {
		if len(raw) != 0 {
			return u64, ErrCorrupt
		}
		return u64, nil
	}
	// Three byte columns plus three width bytes is the floor; anything
	// smaller cannot hold n records.
	if len(raw) < 3*n+3 || z.Fill(3*n) != nil {
		return u64, ErrCorrupt
	}
	u64 = sliceCap(u64, n)
	b.Types = sliceCap(b.Types, n)
	b.TS = sliceCap(b.TS, n)
	b.App = sliceCap(b.App, n)
	b.Flags = sliceCap(b.Flags, n)
	b.Aux = sliceCap(b.Aux, n)
	b.Off = sliceCap(b.Off, n+1)

	p := 0
	for i := 0; i < n; i++ {
		t := raw[p+i]
		if t == 0 || t > byte(RecScreen) {
			return u64, ErrCorrupt
		}
		b.Types[i] = RecordType(t)
	}
	p += n
	copy(b.Flags, raw[p:p+n])
	p += n
	copy(b.Aux, raw[p:p+n])
	p += n

	// Timestamp deltas.
	p, ok := unpackColumn(z, raw, p, u64, 64)
	if !ok {
		return u64, ErrCorrupt
	}
	prev := h.first
	for i := 0; i < n; i++ {
		prev += Timestamp(zigzagDec(u64[i]))
		b.TS[i] = prev
	}
	if prev != h.lastTS {
		return u64, ErrCorrupt
	}

	// App IDs.
	if p, ok = unpackColumn(z, raw, p, u64, 32); !ok {
		return u64, ErrCorrupt
	}
	for i := 0; i < n; i++ {
		b.App[i] = uint32(u64[i])
	}

	// Variable-length byte counts, validated per record type; the blob
	// after them must be exactly the declared lengths' sum.
	if p, ok = unpackColumn(z, raw, p, u64, 32); !ok {
		return u64, ErrCorrupt
	}
	var sum uint64
	b.Off[0] = 0
	for i := 0; i < n; i++ {
		l := u64[i]
		if l > maxRecordLen {
			return u64, ErrCorrupt
		}
		if l != 0 && b.Types[i] != RecAppName && b.Types[i] != RecPacket {
			return u64, ErrCorrupt
		}
		sum += l
		if sum > uint64(len(raw)-p) {
			return u64, ErrCorrupt
		}
		b.Off[i+1] = uint32(sum)
	}
	if sum != uint64(len(raw)-p) {
		return u64, ErrCorrupt
	}
	b.Blob = raw[p:]
	return u64, nil
}

// unpackColumn reads the packed column at raw[p:] — a width byte, at most
// maxW, then len(u64) values of that width — into u64, decompressing it
// through z first, and returns the offset past it, or false when raw
// cannot hold what the width declares.
func unpackColumn(z *lz.Decoder, raw []byte, p int, u64 []uint64, maxW uint) (int, bool) {
	if len(raw)-p < 1 || z.Fill(p+1) != nil {
		return 0, false
	}
	w := uint(raw[p])
	p++
	nb := (len(u64)*int(w) + 7) / 8
	if w > maxW || len(raw)-p < nb || z.Fill(p+nb) != nil {
		return 0, false
	}
	unpackBits(u64, raw[p:p+nb], w)
	return p + nb, true
}

// columnEncoder holds the block a ColumnWriter is staging — in a
// RecordBatch, which is already the shape the payload stores — and the
// buffers that turn it into a payload.
type columnEncoder struct {
	batch RecordBatch
	raw   []byte
	comp  []byte
	u64   []uint64
	lza   *lz.Appender
}

// encoderPool hands a sealed writer's block buffers — the staged batch, the
// column image, the compressed block and the LZ hash table, about 1 MB once
// a full block has been cut — to the next writer. The ingest segment store
// opens a writer per segment, over a hundred a second under bulk load with
// small segments; growing the buffers from nothing for each was four fifths
// of the node's allocation and kept it in a GC cycle every 20 ms.
var encoderPool = sync.Pool{New: func() any { return &columnEncoder{lza: new(lz.Appender)} }}

// full estimates the uncompressed image against targetBlockSize: ~11
// bytes/record covers the three byte columns plus typical packed
// timestamp/app/len widths; the blob dominates for packet-heavy data.
func (e *columnEncoder) full() bool {
	return len(e.batch.Blob)+11*e.batch.Len() >= targetBlockSize
}

// encode compresses the staged records into one payload (valid until the
// next call), returns its uncompressed length and starts afresh.
func (e *columnEncoder) encode() (ulen int, comp []byte) {
	e.raw, e.u64 = appendColumns(e.raw[:0], &e.batch, e.batch.TS[0], e.u64)
	e.comp = e.lza.Compress(e.comp[:0], e.raw)
	e.batch.Reset()
	return len(e.raw), e.comp
}

// decodeColumnBlock decompresses the CRC-verified payload comp into raw
// (len == h.ulen) and decodes it into dst, whose Blob aliases raw
// afterwards. It rejects anything that is not exactly h.count records
// ending at h.lastTS.
func decodeColumnBlock(sc *blockScratch, comp, raw []byte, h blockHeader, dst *RecordBatch) error {
	if err := sc.openBlock(comp, raw, h, dst); err != nil {
		return err
	}
	return sc.finishBlock(dst, 0, dst.Len())
}

// openBlock starts decompressing the CRC-verified payload comp into raw
// (len == h.ulen) and decodes its column region into dst (see
// decodeColumns); finishBlock finishes the block.
func (sc *blockScratch) openBlock(comp, raw []byte, h blockHeader, dst *RecordBatch) error {
	sc.lz.Reset(raw, comp)
	var err error
	sc.u64, err = decodeColumns(&sc.lz, raw, h, dst, sc.u64)
	sc.blobAt = len(raw) - len(dst.Blob)
	return err
}

// finishBlock finishes the block openBlock started: it decompresses the
// blob of b through the bytes of row end-1, so rows [lo, end) are whole,
// and walks the rest of the stream without writing it, with every check a
// full decompression makes. With lo == end no blob byte is written.
func (sc *blockScratch) finishBlock(b *RecordBatch, lo, end int) error {
	if end > lo {
		if sc.lz.Fill(sc.blobAt+int(b.Off[end])) != nil {
			return ErrCorrupt
		}
	}
	if sc.lz.Walk() != nil {
		return ErrCorrupt
	}
	return nil
}
