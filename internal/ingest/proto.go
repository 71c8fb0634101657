// Package ingest implements the live fleet-ingest subsystem: a TCP server
// (cmd/ingestd) that accepts streams of METR records from many concurrent
// device connections, routes each device through a sharded worker pool, and
// feeds the bounded-memory analysis accumulators incrementally so the
// paper's headline statistics are queryable in real time over an HTTP admin
// endpoint. cmd/fleetsim is the matching load generator.
//
// Wire protocol v2 (one TCP connection per device stream), designed around
// fault tolerance: every record has an explicit per-device sequence number,
// the server acknowledges a resume point at connection setup, and a failed
// connection is resumed — not restarted — so crashes, drops and corruption
// cost retransmission, never data loss or double counting.
//
//	hello    := "FLTS2\n" deviceLen:uvarint device:bytes start:varint(µs)
//	            lastSeq:uvarint crc:uint32le
//	            crc covers everything from the magic through lastSeq: a bit
//	            flip in the handshake must be refused, not register a
//	            phantom device whose records double-count in the fleet
//	helloAck := status:byte arg:uvarint
//	            status 0 (ok):        arg = resumeSeq, the seq of the first
//	                                  record the server expects on this conn
//	            status 1 (throttled): arg = retry-after in milliseconds
//	            status 2 (draining):  arg = 0; server is shutting down
//	            status 3:             reserved: older builds' cluster mode
//	                                  redirected the device to another node;
//	                                  a client refuses it (errRedirectAck)
//	frame    := seq:uvarint bodyLen:uvarint body:bytes crc:uint32le
//	            crc covers the seq and bodyLen varints and the body
//	body     := FIN | batch — a body that is neither is a framing error
//	            and severs the connection
//	FIN      := 0x00 — end of stream, seq = the next record's: the server
//	            closes the device's session and acks with status 0 / final
//	            seq
//	batch    := 0x06 count:uvarint (recLen:uvarint record)*
//	            count (1..65536) consecutive records with the frame seq
//	            naming the first; record j carries seq+j. One length prefix,
//	            one CRC and one syscall amortize over the whole batch, which
//	            is what lifts ingest from ~1M to multi-M records/s.
//	record   := type:byte record-body     (trace.RecordEncoder)
//
// A record is byte-identical to the CRC-covered region of a METR file
// record, and record timestamps are delta-encoded per connection exactly as
// in a METR file, the chain running through batch boundaries — a device
// stream is a METR trace re-framed for the wire.
//
// This file is the only code that knows the grammar above: batchWriter
// encodes batches (the Client and every test that needs a frame go through
// it), appendFrame frames a FIN, frameReader and batchBody decode for the
// connection handler.
//
// A CRC, framing or record-decode failure severs the connection: the timestamp delta
// chain is broken past the bad frame, so the only sound recovery is for the
// client to reconnect and resume from the server's acknowledged sequence
// number, which retransmits the damaged record. (v1 kept the connection and
// skipped the frame, silently shifting every later timestamp by the lost
// delta — recoverability now comes from resume, not from tolerating gaps.)
// Sequence numbers make replay after reconnect idempotent: the shard that
// owns the device drops any record below its per-device high-water mark.
package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"netenergy/internal/trace"
)

// Protocol errors.
var (
	// ErrBadHello means the connection did not start with a valid hello.
	ErrBadHello = errors.New("ingest: bad hello")
	// ErrFrameTooBig means a frame declared a body larger than MaxFrame;
	// the length prefix cannot be trusted, so the connection is fatal.
	ErrFrameTooBig = errors.New("ingest: frame exceeds size limit")
	// ErrFrameCRC means a frame's CRC check failed. The record inside is
	// lost and the timestamp chain with it: the connection must be severed
	// and the client resumes from the server's last acknowledged sequence.
	ErrFrameCRC = errors.New("ingest: frame crc mismatch")
	// ErrFrameTruncated means the stream ended inside a frame.
	ErrFrameTruncated = errors.New("ingest: truncated frame")
	// ErrBadAck means the server's hello acknowledgement was malformed.
	ErrBadAck = errors.New("ingest: bad hello ack")
	// ErrDraining is the one error for "this node is shutting down and takes
	// nothing more": a client whose handshake was refused gets it, and so
	// does a checkpoint asked of a draining server.
	ErrDraining = errors.New("ingest: server draining")

	// errRedirectAck is a handshake answered with status 3, which only an
	// older build's cluster mode sends. This build routes nowhere else, so
	// the session ends on it instead of dialing the address it names.
	errRedirectAck = errors.New("ingest: handshake answered with a redirect ack (status 3) by a cluster-mode node of an older build; this client streams to one node and does not follow it")
)

// ErrThrottled is returned to a client the server refused for exceeding its
// per-device rate limit; RetryAfter is the server's suggested backoff.
type ErrThrottled struct {
	RetryAfter time.Duration
}

func (e *ErrThrottled) Error() string {
	return fmt.Sprintf("ingest: throttled, retry after %s", e.RetryAfter)
}

var helloMagic = []byte("FLTS2\n")

// Hello-ack status codes.
const (
	ackOK        = 0
	ackThrottled = 1
	ackDraining  = 2
	// ackRedirect is reserved: older builds' cluster mode answered a device
	// another node owned with it, the owner's address after the argument.
	// No server sends it any more; a client refuses it (errRedirectAck).
	ackRedirect = 3
)

const (
	// MaxFrame caps a frame body; matches the METR file record cap.
	MaxFrame = 1 << 20
	// maxDeviceID caps the hello's device-identifier length.
	maxDeviceID = 4096
)

// The two frame bodies, told apart by their first byte. Both values lie
// outside the record types (trace.RecAppName..RecScreen are 1..5), so a body
// that starts with a record type — a bare record, which is not a frame — is
// refused rather than misread.
const (
	// finByte (trace.RecInvalid) is the whole body of an end-of-stream frame.
	finByte = 0x00
	// batchByte opens a batch body.
	batchByte = 0x06
)

// maxBatchRecords caps the record count a batch body may declare; with the
// MaxFrame body cap it bounds what a hostile count can make the server do.
const maxBatchRecords = 1 << 16

// isFin reports whether a frame body is the end-of-stream marker.
func isFin(body []byte) bool { return len(body) == 1 && body[0] == finByte }

// writeHello writes the connection preamble. lastSeq is the sequence number
// of the next record the client would send — how many records it believes
// the server has already accepted (0 on a fresh stream).
func writeHello(w io.Writer, device string, start trace.Timestamp, lastSeq int64) error {
	b := append([]byte(nil), helloMagic...)
	b = binary.AppendUvarint(b, uint64(len(device)))
	b = append(b, device...)
	b = binary.AppendVarint(b, int64(start))
	b = binary.AppendUvarint(b, uint64(lastSeq))
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(b))
	b = append(b, crcb[:]...)
	_, err := w.Write(b)
	return err
}

// readUvarintInto reads a uvarint while appending its raw bytes to *raw.
func readUvarintInto(r *bufio.Reader, raw *[]byte) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		c, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		*raw = append(*raw, c)
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, errors.New("uvarint overflow")
			}
			return v | uint64(c)<<shift, nil
		}
		v |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, errors.New("uvarint overflow")
}

// readHello parses and CRC-verifies the connection preamble. Unlike frame
// errors, a bad hello never identifies a device — it is counted globally
// and the connection dropped without an ack.
func readHello(r *bufio.Reader) (device string, start trace.Timestamp, lastSeq int64, err error) {
	raw := make([]byte, 0, 64)
	var m [6]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return "", 0, 0, ErrBadHello
	}
	for i := range m {
		if m[i] != helloMagic[i] {
			return "", 0, 0, ErrBadHello
		}
	}
	raw = append(raw, m[:]...)
	dlen, err := readUvarintInto(r, &raw)
	if err != nil || dlen == 0 || dlen > maxDeviceID {
		return "", 0, 0, ErrBadHello
	}
	dev := make([]byte, dlen)
	if _, err := io.ReadFull(r, dev); err != nil {
		return "", 0, 0, ErrBadHello
	}
	raw = append(raw, dev...)
	su, err := readUvarintInto(r, &raw)
	if err != nil {
		return "", 0, 0, ErrBadHello
	}
	s := int64(su>>1) ^ -int64(su&1) // zigzag decode (binary.AppendVarint)
	seq, err := readUvarintInto(r, &raw)
	if err != nil {
		return "", 0, 0, ErrBadHello
	}
	var crcb [4]byte
	if _, err := io.ReadFull(r, crcb[:]); err != nil {
		return "", 0, 0, ErrBadHello
	}
	if binary.LittleEndian.Uint32(crcb[:]) != crc32.ChecksumIEEE(raw) {
		return "", 0, 0, ErrBadHello
	}
	return string(dev), trace.Timestamp(s), int64(seq), nil
}

// writeAck writes a hello (or FIN) acknowledgement.
func writeAck(w io.Writer, status byte, arg uint64) error {
	b := []byte{status}
	b = binary.AppendUvarint(b, arg)
	_, err := w.Write(b)
	return err
}

// readAck parses an acknowledgement and maps non-OK statuses to errors.
func readAck(r *bufio.Reader) (arg int64, err error) {
	status, err := r.ReadByte()
	if err != nil {
		return 0, ErrBadAck
	}
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, ErrBadAck
	}
	switch status {
	case ackOK:
		return int64(v), nil
	case ackThrottled:
		return 0, &ErrThrottled{RetryAfter: time.Duration(v) * time.Millisecond}
	case ackDraining:
		return 0, ErrDraining
	case ackRedirect:
		return 0, errRedirectAck
	default:
		return 0, ErrBadAck
	}
}

// appendFrame appends one framed body (sequence number, length prefix,
// body, CRC over all three) to dst.
func appendFrame(dst []byte, seq int64, body []byte) []byte {
	head := len(dst)
	dst = binary.AppendUvarint(dst, uint64(seq))
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	dst = append(dst, body...)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], crc32.ChecksumIEEE(dst[head:]))
	return append(dst, crcb[:]...)
}

// batchWriter is the one encoder of the batch grammar. add collects
// length-prefixed records; flush frames them as one batch and streams head,
// records, CRC straight into w — the record bytes are copied once (into the
// connection's bufio.Writer), not assembled through a frame buffer.
type batchWriter struct {
	w       io.Writer
	seq     int64 // of the first pending record
	count   int
	records []byte // count x (recLen:uvarint record)
	scratch []byte // the frame head, then the CRC trailer
}

// add appends one encoded record carrying sequence number seq to the pending
// batch; the caller keeps the records of one batch consecutive.
func (b *batchWriter) add(seq int64, record []byte) {
	if b.count == 0 {
		b.seq = seq
	}
	b.records = binary.AppendUvarint(b.records, uint64(len(record)))
	b.records = append(b.records, record...)
	b.count++
}

// flush writes the pending records as one batch frame and returns the bytes
// it put on the wire; with nothing pending it writes nothing.
func (b *batchWriter) flush() (int, error) {
	if b.count == 0 {
		return 0, nil
	}
	var count [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(count[:], uint64(b.count))
	head := binary.AppendUvarint(b.scratch[:0], uint64(b.seq))
	head = binary.AppendUvarint(head, uint64(1+cn+len(b.records))) // bodyLen
	head = append(append(head, batchByte), count[:cn]...)
	crc := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, b.records)
	n := len(head) + len(b.records) + 4
	if _, err := b.w.Write(head); err != nil {
		return 0, err
	}
	if _, err := b.w.Write(b.records); err != nil {
		return 0, err
	}
	b.scratch = binary.LittleEndian.AppendUint32(head[:0], crc)
	if _, err := b.w.Write(b.scratch); err != nil {
		return 0, err
	}
	b.records, b.count = b.records[:0], 0
	return n, nil
}

// batchBody iterates the records of a batch frame body, the one decoder of
// the batch grammar: every length is checked against the bytes that are
// there before it is used.
//
//	b := openBatch(body)
//	for b.next() { use b.record }
//	if b.err != nil { sever }
type batchBody struct {
	rest   []byte
	left   int    // records not yet returned
	record []byte // the current record, aliasing the frame body
	err    error  // why next returned false early; nil at a clean end
}

// Batch-body framing errors.
var (
	errNotBatch      = errors.New("body is neither FIN nor a batch")
	errBatchHeader   = errors.New("malformed batch header")
	errBatchRecord   = errors.New("malformed batch record")
	errBatchTrailing = errors.New("trailing bytes after batch")
)

// openBatch checks a frame body's batch header. A body that is not a batch,
// or declares no records or more than maxBatchRecords, yields an iterator
// that is already at its error.
func openBatch(body []byte) batchBody {
	if len(body) == 0 || body[0] != batchByte {
		return batchBody{err: errNotBatch}
	}
	count, n := binary.Uvarint(body[1:])
	if n <= 0 || count == 0 || count > maxBatchRecords {
		return batchBody{err: errBatchHeader}
	}
	return batchBody{rest: body[1+n:], left: int(count)}
}

// next advances to the next record. It returns false at the end of the
// batch — clean only if the declared count used up the body exactly — and at
// a record whose length prefix is malformed or runs past the body.
func (b *batchBody) next() bool {
	if b.err != nil {
		return false
	}
	if b.left == 0 {
		if len(b.rest) != 0 {
			b.err = errBatchTrailing
		}
		return false
	}
	rl, n := binary.Uvarint(b.rest)
	if n <= 0 || rl > uint64(len(b.rest)-n) {
		b.err = errBatchRecord
		return false
	}
	b.record, b.rest = b.rest[n:n+int(rl)], b.rest[n+int(rl):]
	b.left--
	return true
}

// frameReader reads frames from a buffered stream, reusing one body buffer.
// The CRC read buffer is a field rather than a stack variable: passing a
// stack array through the io.ReadFull interface makes it escape, and the
// resulting 8 B/op showed up on every frame of every connection
// (TestFrameDecodeAllocFree pins the fix).
type frameReader struct {
	r    *bufio.Reader
	buf  []byte
	head []byte
	crcb [4]byte
}

func newFrameReader(r *bufio.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, 0, 2048)}
}

// next returns the next frame's sequence number and body; the body is valid
// until the following call. A clean end of stream is io.EOF. ErrFrameCRC
// means the frame (and the timestamp chain) cannot be trusted — the caller
// must sever the connection and rely on resume. The body buffer grows to
// the actual bytes read, never to an attacker-claimed length beyond
// MaxFrame.
func (f *frameReader) next() (seq int64, body []byte, err error) {
	f.head = f.head[:0]
	s, err := readUvarintInto(f.r, &f.head)
	if err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, ErrFrameTruncated
	}
	blen, err := readUvarintInto(f.r, &f.head)
	if err != nil {
		return 0, nil, ErrFrameTruncated
	}
	if blen > MaxFrame {
		return 0, nil, ErrFrameTooBig
	}
	// Fast path: when the whole frame (body + CRC) fits the bufio buffer,
	// serve the body as an alias into it — no copy. Discard only advances
	// the read cursor; the bytes stay put until the next fill, which
	// matches the valid-until-next-call contract. Peek failing (buffer too
	// small, or EOF racing a partial frame) falls through to the copying
	// path, which reports the precise framing error.
	if full, err := f.r.Peek(int(blen) + 4); err == nil {
		body = full[:blen]
		crc := crc32.ChecksumIEEE(f.head)
		crc = crc32.Update(crc, crc32.IEEETable, body)
		want := binary.LittleEndian.Uint32(full[blen:])
		f.r.Discard(int(blen) + 4) //nolint:errcheck // peeked bytes are buffered
		if want != crc {
			return 0, nil, ErrFrameCRC
		}
		return int64(s), body, nil
	}
	if cap(f.buf) < int(blen) {
		f.buf = make([]byte, blen)
	}
	body = f.buf[:blen]
	if _, err := io.ReadFull(f.r, body); err != nil {
		return 0, nil, ErrFrameTruncated
	}
	if _, err := io.ReadFull(f.r, f.crcb[:]); err != nil {
		return 0, nil, ErrFrameTruncated
	}
	crc := crc32.ChecksumIEEE(f.head)
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if binary.LittleEndian.Uint32(f.crcb[:]) != crc {
		return 0, nil, ErrFrameCRC
	}
	return int64(s), body, nil
}
