package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// The METR-3 container is a frame grammar around a columnar block payload:
//
//	file    := "METR3\n" header block* index footer
//	header  := deviceLen:uvarint device:bytes start:varint
//	block   := 'B' ulen:uvarint clen:uvarint crc32c:uint32le
//	           firstTS:varint lastTS:varint count:uvarint payload:clen-bytes
//	index   := 'I' count:uvarint entry*
//	entry   := offsetDelta:uvarint ulen:uvarint clen:uvarint
//	           firstTS:varint lastTS:varint count:uvarint
//	footer  := indexLen:uint64le indexCRC32C:uint32le "3RTEM\n"
//
// Records are grouped into blocks of ~256 KiB uncompressed; each block is
// compressed independently, CRC32C-protected (Castagnoli, over the
// compressed payload, so corruption is caught before decompressing), and
// carries its own first/last timestamp and record count. The timestamp
// delta chain restarts at firstTS in every block, so blocks decode
// independently of one another — the property the parallel reader exploits.
// Per-record CRCs are dropped — the block CRC already covers every byte —
// which is what makes the in-block record framing cheaper than v1's.
//
// The index repeats every block header plus its file offset
// (delta-encoded), and the fixed-size footer names the index so a reader
// holding an io.ReaderAt can seek straight to it. Streaming readers ignore
// the index: blocks are self-describing, so NewReader decodes a blocked
// file front to back without seeking.
//
// This file is the frame layer and the writer (ColumnWriter, below). What a
// payload holds — bit-packed columns under internal/lz — is columnar.go's
// business, which decodes a block into a RecordBatch.
//
// Torn tail: a blocked file without a footer is a segment still being
// written (a reader can land between cutBlock's two writes) or one a kill
// left behind, and its last block may run past the end of the file. The
// streaming iterator reports that as errTornBlock: ErrTruncated to
// NewReader/ReadFile callers, a clean end after the last complete block to
// ScanFile (see scanStream). A bad tag, a CRC mismatch or a malformed
// header is corruption wherever it sits.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// targetBlockSize is the uncompressed payload size at which the writer
	// cuts a block. 256 KiB keeps per-block compression dictionaries
	// effective while leaving hundreds of blocks per device-file for the
	// parallel reader to spread over workers (Guner & Kosar: transfer
	// granularity is the dominant throughput/energy lever; this is the
	// on-disk analogue).
	targetBlockSize = 256 << 10

	// maxBlockLen is a sanity cap on both sides of a block, bounding
	// allocation when reading crafted or corrupt headers.
	maxBlockLen = 1 << 24

	// maxBlockHeaderLen is the longest encoding of the post-tag block
	// header: five varints and the CRC.
	maxBlockHeaderLen = 5*binary.MaxVarintLen64 + 4

	// footerLen is the fixed trailer: index length, index CRC32C, magic.
	footerLen = 8 + 4 + 6

	blockTag = 'B'
	indexTag = 'I'
)

// errTornBlock: a block's header or payload runs past the end of the stream.
var errTornBlock = fmt.Errorf("%w (block runs past the end of the file)", ErrTruncated)

var (
	magicColumnar       = []byte("METR3\n")
	footerMagicColumnar = []byte("3RTEM\n")
)

// BlockInfo describes one block of a blocked file, as recorded in the
// footer index.
type BlockInfo struct {
	Offset    int64 // file offset of the block tag byte
	CompLen   int   // compressed payload bytes
	UncompLen int   // uncompressed payload bytes
	First     Timestamp
	Last      Timestamp
	Count     int // records in the block
}

// blockHeader is a parsed per-block header.
type blockHeader struct {
	ulen, clen int
	crc        uint32
	first      Timestamp
	lastTS     Timestamp
	count      int
}

// varintErr classifies a failed binary.Uvarint/Varint: n == 0 means the
// buffer ended inside the value, n < 0 that the value overflows 64 bits.
func varintErr(n int) error {
	if n == 0 {
		return ErrTruncated
	}
	return ErrCorrupt
}

// parseBlockHeader parses a block header from b (starting after the tag
// byte), returning the header and its encoded length. ErrTruncated means b
// ended inside the header and nothing else.
func parseBlockHeader(b []byte) (blockHeader, int, error) { return parseBlockFields(b, true) }

// parseBlockFields parses and validates what a block header and the
// block's index entry both carry — ulen, clen, firstTS, lastTS, count, and
// between clen and firstTS the payload CRC that only the header has — so
// the two can never disagree on what a sane block is.
func parseBlockFields(b []byte, withCRC bool) (blockHeader, int, error) {
	var h blockHeader
	p := b
	ulen, n := binary.Uvarint(p)
	if n <= 0 {
		return h, 0, varintErr(n)
	}
	p = p[n:]
	clen, n := binary.Uvarint(p)
	if n <= 0 {
		return h, 0, varintErr(n)
	}
	p = p[n:]
	if ulen > maxBlockLen || clen > maxBlockLen {
		return h, 0, ErrCorrupt
	}
	if withCRC {
		if len(p) < 4 {
			return h, 0, ErrTruncated
		}
		h.crc = binary.LittleEndian.Uint32(p)
		p = p[4:]
	}
	first, n := binary.Varint(p)
	if n <= 0 {
		return h, 0, varintErr(n)
	}
	p = p[n:]
	last, n := binary.Varint(p)
	if n <= 0 {
		return h, 0, varintErr(n)
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return h, 0, varintErr(n)
	}
	p = p[n:]
	// Every record is at least 2 uncompressed bytes, and every uncompressed
	// byte must belong to a declared record (trailing undeclared bytes are
	// rejected after decoding, so a zero-count block cannot smuggle any).
	// Held for index entries too, otherwise a tiny file could declare
	// arbitrary counts and drive unbounded allocations downstream.
	if count > ulen/2+1 || (count == 0 && ulen != 0) {
		return h, 0, ErrCorrupt
	}
	// The writer enforces non-decreasing timestamps, so a first that exceeds
	// its last was never produced by it — reject rather than let an
	// inverted range corrupt pushdown decisions downstream.
	if count > 0 && first > last {
		return h, 0, ErrCorrupt
	}
	h.ulen, h.clen = int(ulen), int(clen)
	h.first, h.lastTS, h.count = Timestamp(first), Timestamp(last), int(count)
	return h, len(b) - len(p), nil
}

// appendBlockFields is parseBlockFields' inverse: the block-describing
// fields of b, with crc between clen and firstTS when withCRC.
func appendBlockFields(dst []byte, b BlockInfo, crc uint32, withCRC bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(b.UncompLen))
	dst = binary.AppendUvarint(dst, uint64(b.CompLen))
	if withCRC {
		dst = binary.LittleEndian.AppendUint32(dst, crc)
	}
	dst = binary.AppendVarint(dst, int64(b.First))
	dst = binary.AppendVarint(dst, int64(b.Last))
	return binary.AppendUvarint(dst, uint64(b.Count))
}

// blockScratch is what a block decode reuses from block to block: the
// buffer the compressed bytes are read into and the unpack scratch. The
// streaming iterator owns one; the indexed readers draw theirs from
// blockScratchPool, which keeps the steady-state decode loop free of
// per-block buffer churn.
type blockScratch struct {
	buf []byte
	u64 []uint64
	// raw is the uncompressed payload of the block a scan or the streaming
	// iterator decoded last, and batch that block: batch's Blob aliases raw,
	// so both are overwritten by the next decode — whatever a caller keeps
	// of a delivered batch (an app name, say) it must copy. The parallel
	// reader decodes into its own arena and leaves raw alone.
	raw   []byte
	batch RecordBatch
}

var blockScratchPool = sync.Pool{New: func() any { return new(blockScratch) }}

// decodeBlock verifies comp against the header's CRC32C — before a byte of
// it is decompressed — and decodes it into dst (see decodeColumnBlock).
func decodeBlock(sc *blockScratch, h blockHeader, comp, raw []byte, dst *RecordBatch) error {
	if crc32.Checksum(comp, castagnoli) != h.crc {
		return ErrCorrupt
	}
	return decodeColumnBlock(sc, comp, raw, h, dst)
}

// sliceCap resizes s to length n, reallocating only when capacity is
// short.
func sliceCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ColumnWriter streams records into a METR-3 container, the one container
// written to disk: file header, admission gate, cut -> frame -> index entry,
// Sync, footer. Flush must be the final call.
type ColumnWriter struct {
	w     io.Writer
	enc   *columnEncoder // the block being staged; pooled, nil once flushed
	off   int64
	hdr   []byte
	last  Timestamp // last timestamp accepted across the whole file
	count uint64
	index []BlockInfo
	err   error
}

var errFlushed = errors.New("trace: writer used after Flush")

// NewColumnWriter writes the METR-3 file header and returns a
// ColumnWriter.
func NewColumnWriter(w io.Writer, device string, start Timestamp) (*ColumnWriter, error) {
	if err := checkDeviceName(device); err != nil {
		return nil, err
	}
	hdr := appendFileHeader(append([]byte(nil), magicColumnar...), device, start)
	if _, err := w.Write(hdr); err != nil {
		return nil, err
	}
	return &ColumnWriter{w: w, enc: encoderPool.Get().(*columnEncoder), off: int64(len(hdr))}, nil
}

// admit is the gate every record passes before it is staged.
func (w *ColumnWriter) admit(typ RecordType, ts Timestamp) error {
	if typ == RecInvalid || typ > RecScreen {
		return fmt.Errorf("trace: cannot write record type %v", typ)
	}
	// Monotonicity gate: block headers record positional first/last
	// timestamps, and range pushdown treats them as min/max when pruning
	// blocks. A record older than its predecessor would fall outside its
	// block's advertised range and silently vanish from windowed scans, so
	// reject it here (equal timestamps are fine). w.last survives block
	// cuts, unlike the codec's delta base, so it is the reference.
	if w.count > 0 && ts < w.last {
		return fmt.Errorf("trace: record %d (ts=%d) precedes ts=%d: %w",
			w.count, ts, w.last, ErrOutOfOrder)
	}
	return nil
}

// staged books the record the encoder just took and cuts the block when
// its image has reached targetBlockSize, reporting whether it did.
func (w *ColumnWriter) staged(ts Timestamp) (cut bool, err error) {
	w.last = ts
	w.count++
	if !w.enc.full() {
		return false, nil
	}
	return true, w.cutBlock()
}

// Write appends one record to the current block, cutting a block when the
// uncompressed target size is reached. It returns the first error
// encountered and is a no-op afterwards.
func (w *ColumnWriter) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if w.err = w.admit(r.Type, r.TS); w.err != nil {
		return w.err
	}
	w.enc.batch.Append(r)
	_, w.err = w.staged(r.TS)
	return w.err
}

// WriteBatch is a Write loop over b — same blocks, same bytes, same error
// at the same record — that builds no rows. b must be in the canonical
// form Append produces. It returns how many records it took: all of them,
// or fewer when one completed a block (so a caller that rolls files by
// size, like the ingest segment store, decides between blocks) or failed;
// callers loop until the batch is drained.
func (w *ColumnWriter) WriteBatch(b *RecordBatch) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	for i, ts := range b.TS {
		if w.err = w.admit(b.Types[i], ts); w.err != nil {
			return i, w.err
		}
		w.enc.batch.AppendFrom(b, i)
		cut, err := w.staged(ts)
		if err != nil {
			w.err = err
			return i, err
		}
		if cut {
			return i + 1, nil
		}
	}
	return b.Len(), nil
}

// cutBlock compresses the staged records and writes them as one block
// frame.
func (w *ColumnWriter) cutBlock() error {
	n := w.enc.batch.Len()
	if n == 0 {
		return nil
	}
	first := w.enc.batch.TS[0]
	ulen, comp := w.enc.encode()
	b := BlockInfo{Offset: w.off, CompLen: len(comp), UncompLen: ulen,
		First: first, Last: w.last, Count: n}
	w.hdr = appendBlockFields(append(w.hdr[:0], blockTag), b, crc32.Checksum(comp, castagnoli), true)
	if _, err := w.w.Write(w.hdr); err != nil {
		return err
	}
	if _, err := w.w.Write(comp); err != nil {
		return err
	}
	w.index = append(w.index, b)
	w.off += int64(len(w.hdr) + len(comp))
	return nil
}

// Sync cuts the current partial block and writes it out, so a streaming
// reader opening the file sees every record written so far. Unlike Flush
// it writes no index or footer: the file stays unsealed and the writer
// stays usable — the ingest segment store calls Sync before serving a
// query over an in-progress segment, whose missing footer routes readers
// onto the streaming (non-seeking) path.
func (w *ColumnWriter) Sync() error {
	if w.err == nil {
		w.err = w.cutBlock()
	}
	return w.err
}

// Flush writes the final partial block, the footer index and the trailer,
// sealing the file. The writer is finished: its encoder, empty once the
// last block is cut, goes back to the pool, and any further call fails
// rather than reach buffers another writer may hold by then.
func (w *ColumnWriter) Flush() error {
	if err := w.Sync(); err != nil {
		return err
	}
	idx := append(w.hdr[:0], indexTag)
	idx = binary.AppendUvarint(idx, uint64(len(w.index)))
	prev := int64(0)
	for _, b := range w.index {
		idx = appendBlockFields(binary.AppendUvarint(idx, uint64(b.Offset-prev)), b, 0, false)
		prev = b.Offset
	}
	idx = binary.LittleEndian.AppendUint64(idx, uint64(len(idx)))
	idx = binary.LittleEndian.AppendUint32(idx, crc32.Checksum(idx[:len(idx)-8], castagnoli))
	idx = append(idx, footerMagicColumnar...)
	if _, w.err = w.w.Write(idx); w.err != nil {
		return w.err
	}
	encoderPool.Put(w.enc)
	w.enc, w.err = nil, errFlushed
	return nil
}

// blockIter is the streaming (non-seeking) decoder of a METR-3 container,
// behind Reader.Next and BatchReader.Next: it decodes one block at a time
// into a reused RecordBatch and serves the batch, or records out of it,
// allocation-free per record at steady state.
type blockIter struct {
	br  *bufio.Reader
	sc  blockScratch
	idx int // next record of sc.batch that next serves
	rec Record
}

// load reads, verifies and decodes the next non-empty block into d.sc.batch,
// returning io.EOF at a clean end of file.
func (d *blockIter) load() error {
	for {
		tag, err := d.br.ReadByte()
		if err == io.EOF {
			// Missing index: tolerated on the streaming path — the blocks
			// themselves were all CRC-verified.
			return io.EOF
		}
		if err != nil {
			return mapReadErr(err, ErrTruncated, "reading block tag")
		}
		if tag == indexTag {
			// The streaming reader does not need the index; drain so the
			// underlying reader is left at EOF like the v1 path (and every
			// later call finds it there).
			if _, err := io.Copy(io.Discard, d.br); err != nil && ioFailure(err) {
				return fmt.Errorf("trace: draining index: %w", err)
			}
			return io.EOF
		}
		if tag != blockTag {
			return ErrCorrupt
		}
		// A short Peek is the end of the stream; whether the header fits in
		// what is left is for the parser to say.
		hb, perr := d.br.Peek(maxBlockHeaderLen)
		h, n, err := parseBlockHeader(hb)
		if err == ErrTruncated {
			return mapReadErr(perr, errTornBlock, "reading block header")
		}
		if err != nil {
			return err
		}
		d.br.Discard(n) //nolint:errcheck // n bytes were just peeked
		d.sc.buf = sliceCap(d.sc.buf, h.clen)
		if _, err := io.ReadFull(d.br, d.sc.buf); err != nil {
			return mapReadErr(err, errTornBlock, "reading block payload")
		}
		d.sc.raw = sliceCap(d.sc.raw, h.ulen)
		if err := decodeBlock(&d.sc, h, d.sc.buf, d.sc.raw, &d.sc.batch); err != nil {
			return err
		}
		d.idx = 0
		if d.sc.batch.Len() > 0 {
			return nil
		}
		// Zero-count block: keep scanning.
	}
}

// next returns the next record in file order.
func (d *blockIter) next() (*Record, error) {
	if d.idx >= d.sc.batch.Len() {
		if err := d.load(); err != nil {
			return nil, err
		}
	}
	d.sc.batch.Record(d.idx, &d.rec)
	d.idx++
	return &d.rec, nil
}

// nextBatch returns the next whole block as a RecordBatch, valid until
// the following call.
func (d *blockIter) nextBatch() (*RecordBatch, error) {
	if err := d.load(); err != nil {
		return nil, err
	}
	d.idx = d.sc.batch.Len()
	return &d.sc.batch, nil
}

// blockIndex is a sealed METR-3 file as its footer index describes it.
type blockIndex struct {
	device  string
	start   Timestamp
	blocks  []BlockInfo
	dataEnd int64 // offset of the index tag: where the last block ends
}

// ReadBlockIndex reads the footer index of a METR-3 container via ra. It
// returns the device, start timestamp and per-block index, or ok=false if
// the file is not a METR-3 container or carries no (intact) footer — the
// caller should fall back to streaming.
func ReadBlockIndex(ra io.ReaderAt, size int64) (device string, start Timestamp, blocks []BlockInfo, ok bool, err error) {
	ix, err := readBlockIndex(ra, size)
	if err != nil || ix == nil {
		return "", 0, nil, false, err
	}
	return ix.device, ix.start, ix.blocks, true, nil
}

// readBlockIndex is ReadBlockIndex (a nil index for its ok=false) with the
// rest an indexed read needs: the data-end offset.
func readBlockIndex(ra io.ReaderAt, size int64) (*blockIndex, error) {
	var m [6]byte
	if size < int64(len(m))+footerLen {
		return nil, nil
	}
	if _, err := ra.ReadAt(m[:], 0); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if !bytes.Equal(m[:], magicColumnar) {
		return nil, nil
	}
	var foot [footerLen]byte
	if _, err := ra.ReadAt(foot[:], size-footerLen); err != nil {
		return nil, fmt.Errorf("trace: reading footer: %w", err)
	}
	if !bytes.Equal(foot[12:], footerMagicColumnar) {
		return nil, nil // truncated or still being written
	}
	idxLen := int64(binary.LittleEndian.Uint64(foot[:8]))
	wantCRC := binary.LittleEndian.Uint32(foot[8:12])
	if idxLen <= 0 || idxLen > size-footerLen || idxLen > maxBlockLen {
		return nil, ErrCorrupt
	}
	idx := make([]byte, idxLen)
	if _, err := ra.ReadAt(idx, size-footerLen-idxLen); err != nil {
		return nil, fmt.Errorf("trace: reading index: %w", err)
	}
	if crc32.Checksum(idx, castagnoli) != wantCRC {
		return nil, fmt.Errorf("trace: index crc mismatch: %w", ErrCorrupt)
	}
	if idx[0] != indexTag {
		return nil, ErrCorrupt
	}
	// Every field below comes from the (CRC-intact but possibly crafted)
	// index, and sizes something downstream. Each entry is at least 6 bytes
	// (six single-byte varints), so the index's own size bounds the entry
	// count and the pre-allocation; entries pass the block header's own
	// validation; and offsets must be strictly increasing within
	// [1, dataEnd), dataEnd being the first byte past the last block (the
	// index tag).
	p := idx[1:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > uint64(idxLen)/6 {
		return nil, ErrCorrupt
	}
	p = p[n:]
	ix := &blockIndex{dataEnd: size - footerLen - idxLen, blocks: make([]BlockInfo, 0, count)}
	prev := int64(0)
	prevLast := Timestamp(math.MinInt64)
	for i := uint64(0); i < count; i++ {
		od, n := binary.Uvarint(p)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		h, m, err := parseBlockFields(p[n:], false)
		if err != nil {
			return nil, ErrCorrupt
		}
		p = p[n+m:]
		// A block starting before its predecessor ended is a crafted index;
		// pushdown pruning relies on these ranges being honest min/max.
		if h.count > 0 {
			if h.first < prevLast {
				return nil, ErrCorrupt
			}
			prevLast = h.lastTS
		}
		if od == 0 || od >= uint64(ix.dataEnd) || int64(od) > ix.dataEnd-1-prev {
			return nil, ErrCorrupt
		}
		prev += int64(od)
		ix.blocks = append(ix.blocks, BlockInfo{Offset: prev, UncompLen: h.ulen, CompLen: h.clen,
			First: h.first, Last: h.lastTS, Count: h.count})
	}

	// File header: the first block (or the index, for an empty file) bounds it.
	hdrEnd := ix.dataEnd
	if len(ix.blocks) > 0 {
		hdrEnd = ix.blocks[0].Offset
	}
	hdr := io.NewSectionReader(ra, int64(len(m)), hdrEnd-int64(len(m)))
	var err error
	if ix.device, ix.start, err = readFileHeader(bufio.NewReader(hdr)); err != nil {
		return nil, err
	}
	return ix, nil
}

// openIndexed opens a trace file and reads its footer index; ix is nil
// when the file has none and must be streamed instead.
func openIndexed(path string) (*os.File, *blockIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	ix, err := readBlockIndex(f, st.Size())
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, ix, nil
}

// readBlockAt reads block i through ra, verifies it — file span, tag,
// header against its index entry, CRC32C — and decodes it into dst. raw is
// the caller's buffer for the uncompressed payload, len ==
// blocks[i].UncompLen; dst's Blob aliases it afterwards, so it must
// outlive whatever is read out of dst.
func (ix *blockIndex) readBlockAt(ra io.ReaderAt, i int, sc *blockScratch, raw []byte, dst *RecordBatch) error {
	// Each block ends where the next begins; the last ends at the index.
	b := ix.blocks[i]
	next := ix.dataEnd
	if i+1 < len(ix.blocks) {
		next = ix.blocks[i+1].Offset
	}
	span := next - b.Offset
	if span <= 0 || span > maxBlockLen+64 {
		return ErrCorrupt
	}
	sc.buf = sliceCap(sc.buf, int(span))
	buf := sc.buf
	if _, err := ra.ReadAt(buf, b.Offset); err != nil {
		return fmt.Errorf("trace: reading block at %d: %w", b.Offset, err)
	}
	if buf[0] != blockTag {
		return ErrCorrupt
	}
	h, hdrLen, err := parseBlockHeader(buf[1:])
	if err != nil {
		return err
	}
	if h.clen != b.CompLen || h.ulen != b.UncompLen || h.count != b.Count {
		return fmt.Errorf("trace: block header disagrees with index at offset %d: %w", b.Offset, ErrCorrupt)
	}
	if len(buf) < 1+hdrLen+h.clen {
		return ErrTruncated
	}
	return decodeBlock(sc, h, buf[1+hdrLen:1+hdrLen+h.clen], raw, dst)
}

// decodeArena holds the two large per-file buffers an indexed read fills:
// the record slice and the byte arena the decoded payloads alias. Buffers
// are recycled through decodeArenaPool by DeviceTrace.Recycle, which makes a
// steady-state decode loop (one file after another, as core.OpenParallel
// runs it) allocation-free for the dominant buffers. Reuse without
// re-zeroing is safe because every record, and every arena byte a record
// aliases, is written before the DeviceTrace is returned: decompression
// fills each block window exactly, and block materialisation assigns every
// record.
type decodeArena struct {
	recs  []Record
	arena []byte
}

var decodeArenaPool = sync.Pool{New: func() any { return new(decodeArena) }}

// ReadFileParallel reads a trace file into memory. A METR-3 file with an
// intact footer index is always read by that index: the index
// gives every block's record count and uncompressed size up front, so the
// blocks decode straight into disjoint windows of one pooled record slice
// and one pooled byte arena (see decodeArena, and DeviceTrace.Recycle for
// handing them back) — no per-packet payload copy, no append-grown slice,
// no post-decode assembly. workers is only how many goroutines decode
// blocks (workers <= 1 means one, the caller's); record order, and
// therefore the DeviceTrace, is the same for every count and the same as
// the streaming decoder's. Every byte is validated before it sizes
// anything: index CRC32C and bounds, each block header against its index
// entry, each payload's CRC32C. A file without a usable index — a flat
// stream, or a METR-3 file whose footer is missing or torn — streams
// through ReadAll instead.
func ReadFileParallel(path string, workers int) (*DeviceTrace, error) {
	f, ix, err := openIndexed(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if ix == nil {
		return ReadAll(f)
	}
	blocks := ix.blocks

	offs := make([]int, len(blocks)+1)
	uoffs := make([]int, len(blocks)+1)
	for i, b := range blocks {
		offs[i+1] = offs[i] + b.Count
		uoffs[i+1] = uoffs[i] + b.UncompLen
	}
	pooled := decodeArenaPool.Get().(*decodeArena)
	pooled.recs = sliceCap(pooled.recs, offs[len(blocks)])
	pooled.arena = sliceCap(pooled.arena, uoffs[len(blocks)])
	recs, arena := pooled.recs, pooled.arena

	errs := make([]error, len(blocks))
	var nextBlock atomic.Int64
	decode := func() {
		sc := blockScratchPool.Get().(*blockScratch)
		defer blockScratchPool.Put(sc)
		for i := int(nextBlock.Add(1)) - 1; i < len(blocks); i = int(nextBlock.Add(1)) - 1 {
			errs[i] = ix.readBlockAt(f, i, sc, arena[uoffs[i]:uoffs[i+1]], &sc.batch)
			if errs[i] == nil {
				for j, dst := 0, recs[offs[i]:offs[i+1]]; j < len(dst); j++ {
					sc.batch.Record(j, &dst[j])
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers && w < len(blocks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			decode()
		}()
	}
	decode()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			decodeArenaPool.Put(pooled)
			return nil, err
		}
	}

	dt := &DeviceTrace{Device: ix.device, Start: ix.start, Apps: NewAppTable(), Records: recs, pooled: pooled}
	for i := range recs {
		if recs[i].Type == RecAppName {
			dt.Apps.Register(recs[i].App, recs[i].AppName)
		}
	}
	return dt, nil
}
