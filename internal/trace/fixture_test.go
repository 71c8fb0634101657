package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"netenergy/internal/trace"
)

// parentEncoderFile is a METR-3 file written by the block encoder as it
// stood at commit d624578, before the LZ match finder and the bit packer
// were rewritten: the first 1 800 records of synthgen.Small(1, 1) seed 13,
// device 0, through one ColumnWriter that Syncs every 450 records, so the
// file holds four blocks and a footer index. It is never regenerated: it
// is the evidence that files written before the rewrite still read.
const parentEncoderFile = "testdata/parent-encoder.metr3"

// TestParentEncoderFileReads decodes the old encoder's file through the
// three ways into a sealed file — the streaming reader, the indexed
// parallel reader and the pushdown scan — and requires each to yield the
// same records, pinned by the SHA-256 of their flat serialisation.
func TestParentEncoderFileReads(t *testing.T) {
	const (
		pinned  = "de805be7ccd0bee7f69b8f82baaab68f7405964eda2f2a124b3d232c40874573"
		records = 1800
	)
	data, err := os.ReadFile(parentEncoderFile)
	if err != nil {
		t.Fatal(err)
	}
	hash := func(t *testing.T, how string, dt *trace.DeviceTrace) {
		t.Helper()
		if len(dt.Records) != records {
			t.Fatalf("%s: %d records, want %d", how, len(dt.Records), records)
		}
		flat, err := dt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(flat)
		if got := hex.EncodeToString(sum[:]); got != pinned {
			t.Errorf("%s: decoded records hash to %s, pinned %s", how, got, pinned)
		}
	}

	all, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hash(t, "ReadAll", all)

	par, err := trace.ReadFileParallel(parentEncoderFile, 4)
	if err != nil {
		t.Fatal(err)
	}
	hash(t, "ReadFileParallel", par)

	scanned := &trace.DeviceTrace{Start: all.Start}
	var rec trace.Record
	scanned.Device, err = trace.ScanFile(parentEncoderFile, trace.ScanOptions{Range: trace.TimeRange{To: 1 << 62}}, nil,
		func(b *trace.RecordBatch) error {
			for i := 0; i < b.Len(); i++ {
				b.Record(i, &rec)
				rec.Payload = append([]byte(nil), rec.Payload...)
				scanned.Records = append(scanned.Records, rec)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	hash(t, "ScanFile", scanned)
}
