// Package tcpstream performs lightweight TCP stream accounting in the
// style of gopacket's tcpassembly: given the sequence numbers of one
// direction of a TCP flow, it classifies each segment as new data, a
// retransmission, or an out-of-order arrival, and tracks goodput versus
// wire bytes.
//
// The analyzer uses it to measure retransmission overhead — wire bytes
// (which cost radio energy) that deliver no new application data. Sequence
// numbers wrap modulo 2^32; comparisons use serial-number arithmetic
// (RFC 1982 style), so long streams account correctly across wraps.
package tcpstream

// Kind classifies one segment.
type Kind uint8

// Segment classifications.
const (
	KindEmpty   Kind = iota // zero-length (pure ACK)
	KindNew                 // advances the stream: all-new data
	KindRetrans             // entirely at or before the expected sequence
	KindPartial             // overlaps: part old, part new
	KindFuture              // beyond the expected sequence (a gap precedes it)
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindEmpty:
		return "empty"
	case KindNew:
		return "new"
	case KindRetrans:
		return "retransmission"
	case KindPartial:
		return "partial-retransmission"
	case KindFuture:
		return "out-of-order"
	default:
		return "invalid"
	}
}

// Stats accumulates one direction's accounting.
type Stats struct {
	Segments   int
	Bytes      int64 // wire payload bytes
	Goodput    int64 // bytes of new data delivered
	Retrans    int64 // bytes already seen (wasted)
	OutOfOrder int   // segments that arrived beyond the expected seq
}

// RetransFraction returns the fraction of payload bytes that were
// retransmissions.
func (s Stats) RetransFraction() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.Retrans) / float64(s.Bytes)
}

// Stream tracks one direction of one TCP connection.
type Stream struct {
	stats   Stats
	started bool
	next    uint32 // next expected sequence number
}

// seqLess reports a < b in serial-number arithmetic.
func seqLess(a, b uint32) bool { return int32(a-b) < 0 }

// Segment records a segment with the given sequence number and payload
// length and returns its classification.
func (st *Stream) Segment(seq uint32, length int) Kind {
	st.stats.Segments++
	if length <= 0 {
		return KindEmpty
	}
	st.stats.Bytes += int64(length)
	end := seq + uint32(length)
	if !st.started {
		st.started = true
		st.next = end
		st.stats.Goodput += int64(length)
		return KindNew
	}
	switch {
	case seq == st.next:
		st.next = end
		st.stats.Goodput += int64(length)
		return KindNew
	case !seqLess(st.next, end): // end <= next: entirely old data
		st.stats.Retrans += int64(length)
		return KindRetrans
	case seqLess(seq, st.next): // overlaps the boundary
		oldPart := int64(st.next - seq)
		newPart := int64(length) - oldPart
		st.stats.Retrans += oldPart
		st.stats.Goodput += newPart
		st.next = end
		return KindPartial
	default: // seq > next: a gap; accept and jump forward
		st.stats.OutOfOrder++
		st.stats.Goodput += int64(length)
		st.next = end
		return KindFuture
	}
}

// Stats returns the accumulated accounting.
func (st *Stream) Stats() Stats { return st.stats }
