package ingest

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"netenergy/internal/trace"
)

// maxBatch is how many records a Client packs into one batch frame
// before emitting it. Large enough to amortize the frame header, CRC and
// per-frame decode work; small enough that a paced device's partial batch
// (flushed before every sleep) still reflects real-time delivery.
const maxBatch = 64

// maxBatchBytes flushes a pending batch early when its encoded records
// grow large (pathological payloads), keeping batch frames well under
// MaxFrame.
const maxBatchBytes = 256 << 10

// ackTimeout bounds how long a client waits for the server's handshake or
// FIN acknowledgement before declaring the connection dead.
const ackTimeout = 30 * time.Second

// Client streams one device's records to an ingest server over a single
// connection. It is the device-side half of the wire protocol, used by
// cmd/fleetsim and tests. Not safe for concurrent use.
//
// A Client is one connection, not one session: when the connection dies the
// Client is dead, and the caller reconnects and resumes from the server's
// acknowledged sequence number. Session (session.go) wraps that loop.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	enc  *trace.RecordEncoder
	seq  int64

	// Send accumulates records in batch and emits one batch frame per
	// maxBatch records, amortizing the frame header, CRC and buffer write.
	// Flush and Close emit any partial batch first, so no record is ever
	// held back across a flush boundary.
	batch batchWriter

	// ResumeSeq is the sequence number the server acknowledged at the
	// handshake: the seq of the first record it expects on this connection.
	// On a fresh stream it is 0; after a reconnect it tells the caller how
	// far the server really got, which may be behind what was written.
	ResumeSeq int64

	// Records and Bytes count what has been handed to Send on this
	// connection (including retransmitted records).
	Records int64
	Bytes   int64
}

// Dial connects to an ingest server and performs the handshake for the
// given device stream. It retries the TCP connect with jittered exponential
// backoff until timeout elapses, so a load generator can start before the
// server finishes binding. Handshake rejections (ErrThrottled, ErrDraining)
// are returned immediately — the caller owns that retry policy.
func Dial(addr, device string, start trace.Timestamp, timeout time.Duration) (*Client, error) {
	deadline := time.Now().Add(timeout)
	bo := Backoff{Rand: SessionRand(device)}
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return NewClient(conn, device, start, 0)
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(bo.Next())
	}
}

// NewClient performs the hello/ack handshake on an established connection
// and returns the Client. lastSeq is the client's belief of how many
// records the server has accepted (a hint; the server's ack is
// authoritative and lands in ResumeSeq). The connection is owned by the
// Client from here on and is closed on handshake failure.
func NewClient(conn net.Conn, device string, start trace.Timestamp, lastSeq int64) (*Client, error) {
	bw := bufio.NewWriterSize(conn, 1<<16)
	br := bufio.NewReaderSize(conn, 512)
	if err := writeHello(bw, device, start, lastSeq); err != nil {
		conn.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(ackTimeout)) //nolint:errcheck
	resume, err := readAck(br)
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck
	if err != nil {
		conn.Close()
		return nil, err
	}
	return &Client{
		conn: conn, bw: bw, br: br,
		enc:       trace.NewRecordEncoder(start),
		batch:     batchWriter{w: bw},
		seq:       resume,
		ResumeSeq: resume,
	}, nil
}

// Seq returns the sequence number the next Send will carry.
func (c *Client) Seq() int64 { return c.seq }

// Send encodes one record into the pending batch, emitting a batch frame
// once maxBatch records have accumulated. The record is not on the wire
// (or even in the bufio buffer) until the batch is emitted; Flush and
// Close always emit the partial batch first.
func (c *Client) Send(r *trace.Record) error {
	body, err := c.enc.Encode(r)
	if err != nil {
		return err
	}
	c.batch.add(c.seq, body)
	c.seq++
	c.Records++
	if c.batch.count >= maxBatch || len(c.batch.records) >= maxBatchBytes {
		return c.emitBatch()
	}
	return nil
}

// emitBatch puts the pending records on the wire (into the write buffer) as
// one batch frame.
func (c *Client) emitBatch() error {
	n, err := c.batch.flush()
	c.Bytes += int64(n)
	return err
}

// Flush emits the partial batch and pushes buffered frames to the
// connection.
func (c *Client) Flush() error {
	if err := c.emitBatch(); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Close ends the stream cleanly: it sends the FIN frame, waits for the
// server's acknowledgement that every record (and the finalization) has
// been applied, and closes the connection. A nil return therefore means
// server-acknowledged delivery of the whole stream, not merely "bytes
// written to a socket".
func (c *Client) Close() error {
	if err := c.emitBatch(); err != nil {
		c.conn.Close()
		return err
	}
	if _, err := c.bw.Write(appendFrame(nil, c.seq, []byte{finByte})); err != nil {
		c.conn.Close()
		return err
	}
	if err := c.bw.Flush(); err != nil {
		c.conn.Close()
		return err
	}
	c.conn.SetReadDeadline(time.Now().Add(ackTimeout)) //nolint:errcheck
	final, err := readAck(c.br)
	cerr := c.conn.Close()
	if err != nil {
		return fmt.Errorf("ingest: fin ack: %w", err)
	}
	if final != c.seq {
		return fmt.Errorf("ingest: fin ack seq %d, want %d", final, c.seq)
	}
	return cerr
}

// CloseAbort drops the connection without a FIN: the server keeps the
// device stream live so a later connection can resume it.
func (c *Client) CloseAbort() error { return c.conn.Close() }
