package ingest

import (
	"bytes"
	"path/filepath"
	"testing"

	"netenergy/internal/analysis"
	"netenergy/internal/trace"
)

// TestApplyBatchTrimsOverlap is the shard's own exactly-once defence: a
// batch that starts behind the device's high-water mark — a resumed
// connection's replay that the handler let through because a newer one
// raced it — feeds the accumulator and the segment only from the mark on.
// Records [0, 100) are applied, then a batch carrying [50, 150) from
// firstSeq 50: the 50 already held count as duplicates, the 50 new ones
// are taken once, and both the accumulator state and the sealed segment
// equal [0, 150) applied once.
func TestApplyBatchTrimsOverlap(t *testing.T) {
	dt := benchTrace()
	recs := dt.Records[:150]
	batch := func(lo, hi int) *recordBatch {
		cols := new(trace.RecordBatch)
		for i := lo; i < hi; i++ {
			cols.Append(&recs[i])
		}
		return &recordBatch{device: dt.Device, firstSeq: int64(lo), cols: cols}
	}

	dir := t.TempDir()
	c := newCounters()
	sh := newShard(0, 1, batchOpts(), c, newDeviceRegistry(), newSegmentStore(dir, 0, nil, c))
	sh.applyBatch(batch(0, 100))
	sh.applyBatch(batch(50, 150))

	if got := sh.seqs[dt.Device]; got != 150 {
		t.Errorf("high-water mark %d after [0,100) and [50,150), want 150", got)
	}
	if got := c.duplicates.Load(); got != 50 {
		t.Errorf("%d duplicates counted, want 50", got)
	}

	once := analysis.NewStreamAccumulator(dt.Device, batchOpts())
	once.FeedBatch(batch(0, 150).cols)
	if got, want := sh.live[dt.Device].AppendState(nil), once.AppendState(nil); !bytes.Equal(got, want) {
		t.Errorf("accumulator state (%d bytes) differs from [0,150) fed once (%d bytes)", len(got), len(want))
	}

	sh.seg.closeAll()
	files := segmentFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d segment files, want 1", len(files))
	}
	seg, err := trace.ReadFile(filepath.Join(dir, files[0]))
	if err != nil {
		t.Fatal(err)
	}
	want := &trace.DeviceTrace{Device: dt.Device, Start: recs[0].TS, Records: recs}
	gotFlat, err := seg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantFlat, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFlat, wantFlat) {
		t.Errorf("sealed segment holds %d records, not [0,150) once", len(seg.Records))
	}
}
