package ingest

import (
	"errors"
	"fmt"
	"net"
	"time"

	"netenergy/internal/trace"
)

// SessionConfig controls a resumable device session: the reconnect loop
// that delivers one trace to the server exactly once, across however many
// connections that takes.
type SessionConfig struct {
	// Addr is the server address. AddrFunc, when set, is consulted before
	// every connection attempt instead — the crash-recovery path, where a
	// restarted server may listen on a new port.
	Addr     string
	AddrFunc func() string

	Device string
	Start  trace.Timestamp

	// ConnectTimeout bounds one TCP connect attempt (default 1s).
	ConnectTimeout time.Duration
	// Deadline bounds the whole session, zero meaning no limit. A session
	// that cannot finish within it returns an error with the delivery
	// state so far.
	Deadline time.Duration

	// Backoff paces reconnect attempts (zero value = defaults).
	Backoff Backoff

	// WrapConn, when set, wraps each new connection before the handshake —
	// the hook the chaos package uses to inject faults.
	WrapConn func(net.Conn) net.Conn

	// Pace, when set, returns how long to sleep before sending record i;
	// the session flushes buffered frames before any non-trivial sleep so
	// pacing does not hold records hostage in the write buffer.
	Pace func(i int) time.Duration
}

// SessionStats reports how delivery went.
type SessionStats struct {
	// Records is the unique record count acked by the server; Bytes is the
	// total frame bytes written, including retransmissions.
	Records int64
	Bytes   int64
	// Conns is the number of connections the session used (1 = no faults).
	Conns int
	// Resumed counts reconnects that found prior progress on the server.
	Resumed int
	// Retransmitted counts records sent more than once (the price of a
	// severed connection: everything after the server's last checkpointed
	// ack is replayed).
	Retransmitted int64
	// Throttled counts handshakes the server refused for rate limiting.
	Throttled int
}

// StreamTrace delivers recs as one device stream, reconnecting and resuming
// from the server's acknowledged sequence number until the server confirms
// the complete stream (FIN ack) or the deadline expires. It tolerates
// connection loss, server restarts, frame corruption (the server severs,
// the session resumes) and throttling. A redirect ack ends it at once.
func StreamTrace(cfg SessionConfig, recs []trace.Record) (SessionStats, error) {
	var st SessionStats
	addr := cfg.AddrFunc
	if addr == nil {
		addr = func() string { return cfg.Addr }
	}
	connectTimeout := cfg.ConnectTimeout
	if connectTimeout <= 0 {
		connectTimeout = time.Second
	}
	var deadline time.Time
	if cfg.Deadline > 0 {
		deadline = time.Now().Add(cfg.Deadline)
	}
	bo := cfg.Backoff
	if bo.Rand == nil {
		bo.Rand = SessionRand(cfg.Device)
	}

	// sentHint is this side's belief of the server's accepted seq, offered
	// in the hello; the server's ack overrides it.
	var sentHint int64
	fail := func(cause error) (SessionStats, error) {
		return st, fmt.Errorf("ingest: session %s: %d/%d records acked over %d conns: %w",
			cfg.Device, sentHint, len(recs), st.Conns, cause)
	}
	sleep := func(d time.Duration) bool {
		if !deadline.IsZero() {
			left := time.Until(deadline)
			if left <= 0 {
				return false
			}
			if d > left {
				d = left
			}
		}
		time.Sleep(d)
		return true
	}

	for {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fail(errors.New("deadline exceeded"))
		}
		conn, err := net.DialTimeout("tcp", addr(), connectTimeout)
		if err != nil {
			if !sleep(bo.Next()) {
				return fail(err)
			}
			continue
		}
		if cfg.WrapConn != nil {
			conn = cfg.WrapConn(conn)
		}
		c, err := NewClient(conn, cfg.Device, cfg.Start, sentHint)
		if err != nil {
			var thr *ErrThrottled
			switch {
			case errors.As(err, &thr):
				st.Throttled++
				if !sleep(thr.RetryAfter) {
					return fail(err)
				}
			case errors.Is(err, errRedirectAck):
				return fail(err)
			default:
				// Draining, handshake corruption, or a dead socket: back
				// off and retry; a restarting server will take the next
				// attempt.
				if !sleep(bo.Next()) {
					return fail(err)
				}
			}
			continue
		}
		st.Conns++
		if c.ResumeSeq > int64(len(recs)) {
			c.CloseAbort() //nolint:errcheck
			return fail(fmt.Errorf("server resume seq %d beyond trace length %d", c.ResumeSeq, len(recs)))
		}
		if st.Conns > 1 {
			st.Resumed++
			st.Retransmitted += sentHint - c.ResumeSeq
			if st.Retransmitted < 0 {
				st.Retransmitted = 0
			}
		}
		bo.Reset()

		sendErr := func() error {
			for i := c.ResumeSeq; i < int64(len(recs)); i++ {
				if cfg.Pace != nil {
					if d := cfg.Pace(int(i)); d > 0 {
						if d > 5*time.Millisecond {
							if err := c.Flush(); err != nil {
								return err
							}
						}
						if !sleep(d) {
							return errors.New("deadline exceeded")
						}
					}
				}
				if err := c.Send(&recs[i]); err != nil {
					return err
				}
			}
			return nil
		}()
		st.Bytes += c.Bytes
		if sendErr == nil {
			if err := c.Close(); err == nil {
				st.Records = int64(len(recs))
				return st, nil
			}
			// FIN or its ack was lost; the server may or may not have
			// finalized. Reconnect — the handshake tells us, and re-sending
			// FIN to a finalized stream is idempotent.
			sentHint = c.Seq()
			continue
		}
		c.CloseAbort() //nolint:errcheck
		sentHint = c.Seq()
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fail(sendErr)
		}
		if !sleep(bo.Next()) {
			return fail(sendErr)
		}
	}
}
