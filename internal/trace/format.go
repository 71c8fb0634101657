package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The METR binary format, version 1:
//
//	file   := header record*
//	header := "METR1\n" deviceLen:uvarint device:bytes start:varint
//	record := type:byte len:uvarint body:bytes crc:uint32le
//
// Record bodies are varint-packed. Timestamps are delta-encoded against the
// previous record's timestamp (signed varint), which keeps long traces small
// — the collector in the paper stored months of packets per device.
// The CRC32 (IEEE) covers the type byte and body, so a torn or corrupted
// record is detected at read time rather than silently mis-parsed.
//
// Version 3 ("METR3") is the blocked container defined in block.go:
// records grouped into independently compressed, CRC-protected blocks with
// a seekable footer index. NewReader accepts these two and nothing else.

// Format errors.
var (
	ErrBadMagic  = errors.New("trace: bad magic (not a METR file)")
	ErrCorrupt   = errors.New("trace: corrupt record (crc mismatch)")
	ErrTruncated = errors.New("trace: truncated record")

	// ErrOutOfOrder is returned by ColumnWriter when a record's timestamp
	// precedes the previous record's. The block headers carry positional
	// firstTS/lastTS, and range-pushdown scans prune blocks by treating
	// those as min/max — an out-of-order record would silently vanish from
	// every windowed query, so the writer rejects it instead of recording
	// it. The flat v1 stream has no seek index and accepts any order.
	ErrOutOfOrder = errors.New("trace: record timestamp out of order")
)

var magic = []byte("METR1\n")

// legacyMagics names the containers older builds wrote and this one refuses:
// one version is read, and an old one is refused loudly rather than decoded
// by a second parser of untrusted bytes. Commit 9ef790b is the last whose
// tracecat -convert rewrites such a file as METR-3.
var legacyMagics = map[string]string{"METZ1\n": "METZ1", "METR2\n": "METR-2"}

const (
	maxRecordLen = 1 << 20 // sanity cap: no record is near 1 MiB

	// maxDeviceName caps the header device field. The cap is enforced
	// symmetrically: NewWriter and NewColumnWriter reject longer names, so
	// no writer can produce a file a reader refuses to open.
	maxDeviceName = 4096
)

// Format identifies an on-disk trace container.
type Format uint8

// The two containers NewReader sniffs, both written: FormatColumnar to disk
// (NewColumnWriter) and FormatFlat as the in-memory stream form (NewWriter).
const (
	FormatFlat     Format = iota // "METR1": uncompressed record stream
	FormatColumnar               // "METR3": columnar blocked container (bitpacked columns + LZ)
)

// String names the format for reports ("flat", "metr3").
func (f Format) String() string {
	switch f {
	case FormatFlat:
		return "flat"
	case FormatColumnar:
		return "metr3"
	default:
		return fmt.Sprintf("format(%d)", uint8(f))
	}
}

// ioFailure reports whether err is a real I/O failure rather than an
// EOF-shaped end of data. EOF-shaped errors indicate truncation or a short
// file — corruption territory; anything else (a failing disk, a closed
// socket) must be surfaced to the caller, not collapsed into a format error.
func ioFailure(err error) bool {
	return err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF)
}

// mapReadErr classifies a read failure at a point in the stream: EOF-shaped
// errors become eofAs (ErrBadMagic/ErrTruncated, depending on where the
// stream ended), and genuine I/O failures are wrapped with %w so callers can
// errors.Is/As the underlying cause and distinguish a transient read
// failure from a corrupt file.
func mapReadErr(err error, eofAs error, ctx string) error {
	if !ioFailure(err) {
		return eofAs
	}
	return fmt.Errorf("trace: %s: %w", ctx, err)
}

// Writer streams trace records to an underlying io.Writer in the flat METR1
// form. Records must be written in non-decreasing timestamp order for best
// compression, but the format itself permits any order.
type Writer struct {
	w       *bufio.Writer
	lastTS  Timestamp
	scratch []byte
	err     error
	count   uint64
}

// checkDeviceName enforces the shared header cap at write time, so writers
// cannot produce files the reader refuses to open.
func checkDeviceName(device string) error {
	if len(device) > maxDeviceName {
		return fmt.Errorf("trace: device name is %d bytes, exceeds the %d-byte header cap", len(device), maxDeviceName)
	}
	return nil
}

// appendFileHeader appends the post-magic file header shared by every
// container: deviceLen:uvarint device:bytes start:varint.
func appendFileHeader(b []byte, device string, start Timestamp) []byte {
	b = binary.AppendUvarint(b, uint64(len(device)))
	b = append(b, device...)
	b = binary.AppendVarint(b, int64(start))
	return b
}

// NewWriter writes the file header for the given device and returns a
// Writer. The caller must call Flush (or Close on the underlying file)
// when done.
func NewWriter(w io.Writer, device string, start Timestamp) (*Writer, error) {
	if err := checkDeviceName(device); err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic); err != nil {
		return nil, err
	}
	if _, err := bw.Write(appendFileHeader(nil, device, start)); err != nil {
		return nil, err
	}
	return &Writer{w: bw, lastTS: start, scratch: make([]byte, 0, 4096)}, nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// appendBody appends the varint-packed body of r to b, with the timestamp
// delta-encoded against last. It is the single encoding routine shared by
// the file Writer and the wire-protocol RecordEncoder.
func appendBody(b []byte, r *Record, last Timestamp) ([]byte, error) {
	b = binary.AppendVarint(b, int64(r.TS-last))
	switch r.Type {
	case RecAppName:
		b = binary.AppendUvarint(b, uint64(r.App))
		b = binary.AppendUvarint(b, uint64(len(r.AppName)))
		b = append(b, r.AppName...)
	case RecPacket:
		b = binary.AppendUvarint(b, uint64(r.App))
		b = append(b, byte(r.Dir), byte(r.Net), byte(r.State))
		b = binary.AppendUvarint(b, uint64(len(r.Payload)))
		b = append(b, r.Payload...)
	case RecProcState:
		b = binary.AppendUvarint(b, uint64(r.App))
		b = append(b, byte(r.State))
	case RecUIEvent:
		b = binary.AppendUvarint(b, uint64(r.App))
		b = append(b, byte(r.UIKind))
	case RecScreen:
		if r.ScreenOn {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	default:
		return nil, fmt.Errorf("trace: cannot write record type %v", r.Type)
	}
	return b, nil
}

// decodeBody parses a record body as produced by appendBody into rec and
// returns the record's absolute timestamp. Packet payloads alias body.
func decodeBody(typ RecordType, body []byte, last Timestamp, rec *Record) (Timestamp, error) {
	*rec = Record{Type: typ}
	delta, n := binary.Varint(body)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	body = body[n:]
	ts := last + Timestamp(delta)
	rec.TS = ts

	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, false
		}
		body = body[n:]
		return v, true
	}
	readByte := func() (byte, bool) {
		if len(body) == 0 {
			return 0, false
		}
		b := body[0]
		body = body[1:]
		return b, true
	}

	switch typ {
	case RecAppName:
		app, ok := readUvarint()
		if !ok {
			return 0, ErrCorrupt
		}
		nlen, ok := readUvarint()
		if !ok || uint64(len(body)) < nlen {
			return 0, ErrCorrupt
		}
		rec.App = uint32(app)
		rec.AppName = string(body[:nlen])
	case RecPacket:
		app, ok := readUvarint()
		if !ok {
			return 0, ErrCorrupt
		}
		rec.App = uint32(app)
		d, ok1 := readByte()
		nw, ok2 := readByte()
		st, ok3 := readByte()
		if !ok1 || !ok2 || !ok3 {
			return 0, ErrCorrupt
		}
		rec.Dir, rec.Net, rec.State = Direction(d), Network(nw), ProcState(st)
		plen, ok := readUvarint()
		if !ok || uint64(len(body)) < plen {
			return 0, ErrCorrupt
		}
		rec.Payload = body[:plen]
	case RecProcState:
		app, ok := readUvarint()
		if !ok {
			return 0, ErrCorrupt
		}
		st, ok2 := readByte()
		if !ok2 {
			return 0, ErrCorrupt
		}
		rec.App = uint32(app)
		rec.State = ProcState(st)
	case RecUIEvent:
		app, ok := readUvarint()
		if !ok {
			return 0, ErrCorrupt
		}
		k, ok2 := readByte()
		if !ok2 {
			return 0, ErrCorrupt
		}
		rec.App = uint32(app)
		rec.UIKind = UIEventKind(k)
	case RecScreen:
		on, ok := readByte()
		if !ok {
			return 0, ErrCorrupt
		}
		rec.ScreenOn = on != 0
	default:
		return 0, ErrCorrupt
	}
	return ts, nil
}

// Write encodes one record. It returns the first error encountered and is a
// no-op afterwards.
func (w *Writer) Write(r *Record) error {
	if w.err != nil {
		return w.err
	}
	b, err := appendBody(w.scratch[:0], r, w.lastTS)
	if err != nil {
		return err
	}
	w.scratch = b // keep grown capacity

	var frame []byte
	frame = append(frame, byte(r.Type))
	frame = binary.AppendUvarint(frame, uint64(len(b)))
	if _, err := w.w.Write(frame); err != nil {
		w.err = err
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return err
	}
	crc := crc32.ChecksumIEEE([]byte{byte(r.Type)})
	crc = crc32.Update(crc, crc32.IEEETable, b)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc)
	if _, err := w.w.Write(crcb[:]); err != nil {
		w.err = err
		return err
	}
	w.lastTS = r.TS
	w.count++
	return nil
}

// Reader streams records from a METR file. Next returns records in file
// order; the Payload slice of packet records aliases an internal buffer
// that is overwritten by the following Next call.
type Reader struct {
	r      *bufio.Reader
	device string
	start  Timestamp
	lastTS Timestamp
	format Format
	buf    []byte
	rec    Record
	blocks *blockIter // non-nil when reading a METR-3 container
}

// NewReader validates the header and returns a streaming Reader over a flat
// ("METR1") or columnar ("METR3") stream; a METR-3 file is streamed block by
// block in file order, while ReadFile and ReadFileParallel read a sealed one
// by its index. Any other magic is ErrBadMagic, and one of legacyMagics says
// so by name and how to migrate the file.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [6]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, mapReadErr(err, ErrBadMagic, "reading magic")
	}
	switch string(m[:]) {
	case string(magicColumnar):
		device, start, err := readFileHeader(br)
		if err != nil {
			return nil, err
		}
		return &Reader{device: device, start: start, format: FormatColumnar,
			blocks: &blockIter{br: br}}, nil
	case string(magic):
		device, start, err := readFileHeader(br)
		if err != nil {
			return nil, err
		}
		return &Reader{r: br, device: device, start: start, lastTS: start, format: FormatFlat}, nil
	}
	if name, ok := legacyMagics[string(m[:])]; ok {
		return nil, fmt.Errorf("trace: %s container is no longer read; "+
			"tracecat -convert as built at commit 9ef790b rewrites it as METR-3: %w", name, ErrBadMagic)
	}
	return nil, ErrBadMagic
}

// readFileHeader parses the post-magic header (device name, start
// timestamp) shared by every container.
func readFileHeader(br *bufio.Reader) (string, Timestamp, error) {
	dlen, err := binary.ReadUvarint(br)
	if err != nil {
		return "", 0, mapReadErr(err, ErrBadMagic, "reading header")
	}
	if dlen > maxDeviceName {
		return "", 0, ErrBadMagic
	}
	dev := make([]byte, dlen)
	if _, err := io.ReadFull(br, dev); err != nil {
		return "", 0, mapReadErr(err, ErrTruncated, "reading header")
	}
	start, err := binary.ReadVarint(br)
	if err != nil {
		return "", 0, mapReadErr(err, ErrTruncated, "reading header")
	}
	return string(dev), Timestamp(start), nil
}

// Device returns the device identifier from the file header.
func (r *Reader) Device() string { return r.device }

// Start returns the trace start timestamp from the file header.
func (r *Reader) Start() Timestamp { return r.start }

// Format returns the container format the reader sniffed.
func (r *Reader) Format() Format { return r.format }

// Next returns the next record, or io.EOF at a clean end of stream. The
// returned pointer and any Payload it carries are only valid until the next
// call.
func (r *Reader) Next() (*Record, error) {
	if r.blocks != nil {
		return r.blocks.next()
	}
	tb, err := r.r.ReadByte()
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, mapReadErr(err, ErrTruncated, "reading record")
	}
	blen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return nil, mapReadErr(err, ErrTruncated, "reading record")
	}
	if blen > maxRecordLen {
		return nil, ErrCorrupt
	}
	if cap(r.buf) < int(blen) {
		r.buf = make([]byte, blen)
	}
	body := r.buf[:blen]
	if _, err := io.ReadFull(r.r, body); err != nil {
		return nil, mapReadErr(err, ErrTruncated, "reading record")
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r.r, crcb[:]); err != nil {
		return nil, mapReadErr(err, ErrTruncated, "reading record")
	}
	crc := crc32.ChecksumIEEE([]byte{tb})
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if binary.LittleEndian.Uint32(crcb[:]) != crc {
		return nil, ErrCorrupt
	}

	ts, err := decodeBody(RecordType(tb), body, r.lastTS, &r.rec)
	if err != nil {
		return nil, err
	}
	r.lastTS = ts
	return &r.rec, nil
}
