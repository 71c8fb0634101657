package analysis

import (
	"bytes"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestWindowedAccumulatorMatchesRestrictedRuns is the window-semantics
// contract: every window produced by WindowedAccumulator must be
// bit-identical to a standalone accumulator fed only that window's
// records — the "whole-trace batch run restricted to that window" the
// query engine's acceptance criterion compares against.
func TestWindowedAccumulatorMatchesRestrictedRuns(t *testing.T) {
	opts := energy.DefaultOptions()
	const width = trace.Timestamp(3600 * 1e6) // one hour
	for seed := int64(1); seed <= 10; seed++ {
		recs := synthgen.EquivRecords(seed)

		w := NewWindowedAccumulator("equiv-dev", width, opts)
		for i := range recs {
			w.Feed(&recs[i])
		}
		got := w.Finish()
		if len(got) == 0 {
			t.Fatalf("seed %d: no windows", seed)
		}

		// Reference: a fresh accumulator per window over the filtered
		// record run.
		for _, win := range got {
			ref := NewStreamAccumulator("equiv-dev", opts)
			for i := range recs {
				if recs[i].TS >= win.Start && recs[i].TS < win.Start+width {
					ref.Feed(&recs[i])
				}
			}
			want := ref.Finish()
			if !bytes.Equal(win.Res.AppendBinary(nil), want.AppendBinary(nil)) {
				t.Fatalf("seed %d window %d: windowed result differs from restricted run", seed, win.Start)
			}
		}
	}
}

// TestWindowedAccumulatorBatchSplit checks FeedBatch splits batches at
// window boundaries identically to per-record routing.
func TestWindowedAccumulatorBatchSplit(t *testing.T) {
	opts := energy.DefaultOptions()
	const width = trace.Timestamp(3600 * 1e6)
	recs := synthgen.EquivRecords(42)

	perRec := NewWindowedAccumulator("equiv-dev", width, opts)
	for i := range recs {
		perRec.Feed(&recs[i])
	}
	batched := NewWindowedAccumulator("equiv-dev", width, opts)
	var b trace.RecordBatch
	for lo := 0; lo < len(recs); lo += 57 {
		hi := lo + 57
		if hi > len(recs) {
			hi = len(recs)
		}
		b.Reset()
		for i := lo; i < hi; i++ {
			b.Append(&recs[i])
		}
		batched.FeedBatch(&b)
	}

	got, want := batched.Finish(), perRec.Finish()
	if len(got) != len(want) {
		t.Fatalf("window count: batch %d, per-record %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Start != want[i].Start {
			t.Fatalf("window %d start: %d vs %d", i, got[i].Start, want[i].Start)
		}
		if !bytes.Equal(got[i].Res.AppendBinary(nil), want[i].Res.AppendBinary(nil)) {
			t.Fatalf("window %d: batch path diverges from per-record path", i)
		}
	}
}

// TestWindowedAccumulatorUnbounded: width 0 is a single window equal to
// a plain StreamAccumulator run.
func TestWindowedAccumulatorUnbounded(t *testing.T) {
	opts := energy.DefaultOptions()
	recs := synthgen.EquivRecords(7)
	w := NewWindowedAccumulator("equiv-dev", 0, opts)
	for i := range recs {
		w.Feed(&recs[i])
	}
	got := w.Finish()
	if len(got) != 1 {
		t.Fatalf("want a single window, got %d", len(got))
	}
	want := feedPerRecord(recs, opts).Finish()
	if !bytes.Equal(got[0].Res.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Fatal("unbounded window differs from plain accumulator")
	}
}
