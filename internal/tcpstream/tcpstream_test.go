package tcpstream

import (
	"math"
	"testing"
	"testing/quick"

	"netenergy/internal/rng"
)

func TestInOrderStream(t *testing.T) {
	var st Stream
	seq := uint32(1000)
	for i := 0; i < 10; i++ {
		if k := st.Segment(seq, 500); k != KindNew {
			t.Fatalf("segment %d classified %v", i, k)
		}
		seq += 500
	}
	s := st.Stats()
	if s.Goodput != 5000 || s.Bytes != 5000 || s.Retrans != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.RetransFraction() != 0 {
		t.Errorf("retrans fraction = %v", s.RetransFraction())
	}
}

func TestPureRetransmission(t *testing.T) {
	var st Stream
	st.Segment(0, 1000)
	if k := st.Segment(0, 1000); k != KindRetrans {
		t.Fatalf("duplicate classified %v", k)
	}
	if k := st.Segment(500, 500); k != KindRetrans {
		t.Fatalf("tail duplicate classified %v", k)
	}
	s := st.Stats()
	if s.Goodput != 1000 || s.Retrans != 1500 {
		t.Errorf("stats = %+v", s)
	}
	if math.Abs(s.RetransFraction()-0.6) > 1e-9 {
		t.Errorf("retrans fraction = %v", s.RetransFraction())
	}
}

func TestPartialOverlap(t *testing.T) {
	var st Stream
	st.Segment(0, 1000)
	// Overlaps 400 old bytes, brings 600 new.
	if k := st.Segment(600, 1000); k != KindPartial {
		t.Fatalf("overlap classified %v", k)
	}
	s := st.Stats()
	if s.Goodput != 1600 || s.Retrans != 400 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOutOfOrderGap(t *testing.T) {
	var st Stream
	st.Segment(0, 100)
	if k := st.Segment(500, 100); k != KindFuture {
		t.Fatalf("future segment classified %v", k)
	}
	s := st.Stats()
	if s.OutOfOrder != 1 {
		t.Errorf("out of order = %d", s.OutOfOrder)
	}
	// Stream resumes from the jumped position.
	if k := st.Segment(600, 100); k != KindNew {
		t.Errorf("post-gap segment classified %v", k)
	}
}

func TestEmptySegments(t *testing.T) {
	var st Stream
	if k := st.Segment(123, 0); k != KindEmpty {
		t.Fatalf("ack classified %v", k)
	}
	s := st.Stats()
	if s.Segments != 1 || s.Bytes != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.RetransFraction() != 0 {
		t.Error("empty stream retrans fraction should be 0")
	}
}

func TestSequenceWraparound(t *testing.T) {
	var st Stream
	start := uint32(0xffffff00) // 256 bytes below wrap
	st.Segment(start, 256)      // ends exactly at 0
	if k := st.Segment(0, 512); k != KindNew {
		t.Fatalf("post-wrap segment classified %v", k)
	}
	// A duplicate of the pre-wrap segment is still a retransmission.
	if k := st.Segment(start, 256); k != KindRetrans {
		t.Fatalf("pre-wrap duplicate classified %v", k)
	}
	s := st.Stats()
	if s.Goodput != 768 || s.Retrans != 256 {
		t.Errorf("stats = %+v", s)
	}
}

func TestConservationProperty(t *testing.T) {
	// Goodput + Retrans == Bytes for any segment sequence.
	src := rng.New(9)
	f := func(n uint8) bool {
		var st Stream
		count := int(n)%200 + 1
		seq := uint32(src.Uint64())
		for i := 0; i < count; i++ {
			// Random mix of advances, duplicates and jumps.
			switch src.Intn(4) {
			case 0: // duplicate of recent data
				st.Segment(seq-uint32(src.Intn(2000)), 1+src.Intn(1000))
			case 1: // jump forward
				seq += uint32(src.Intn(5000))
				fallthrough
			default:
				l := 1 + src.Intn(1400)
				st.Segment(seq, l)
				seq += uint32(l)
			}
		}
		s := st.Stats()
		return s.Goodput+s.Retrans == s.Bytes && s.Goodput >= 0 && s.Retrans >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindEmpty: "empty", KindNew: "new", KindRetrans: "retransmission",
		KindPartial: "partial-retransmission", KindFuture: "out-of-order",
		Kind(99): "invalid",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
