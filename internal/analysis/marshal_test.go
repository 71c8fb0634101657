package analysis

import (
	"bytes"
	"reflect"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
)

func marshalOpts() energy.Options {
	opts := energy.DefaultOptions()
	opts.KeepPackets = false
	return opts
}

// sameResult compares two stream results through their public view: each
// ledger is synced first (the contract's read point), then every exported
// field is compared, the ledger's included; private state, such as a live
// ledger's dense accumulators, is not.
func sameResult(a, b *StreamResult) bool {
	va, vb := *a, *b
	va.Ledger, vb.Ledger = nil, nil
	return reflect.DeepEqual(va, vb) && sameLedger(a.Ledger, b.Ledger)
}

func sameLedger(a, b *energy.Ledger) bool {
	a.Sync()
	b.Sync()
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Type().Field(i).IsExported() && !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return false
		}
	}
	return true
}

// TestStreamResultRoundtrip: encode/decode reproduces a non-trivial result
// exactly, field for field.
func TestStreamResultRoundtrip(t *testing.T) {
	cfg := synthgen.Small(2, 2)
	dts := synthgen.GenerateInMemory(cfg)
	agg := NewStreamResult("fleet")
	for _, dt := range dts {
		acc := NewStreamAccumulator(dt.Device, marshalOpts())
		for i := range dt.Records {
			acc.Feed(&dt.Records[i])
		}
		agg.Merge(acc.Finish())
	}

	blob := agg.AppendBinary(nil)
	got, err := DecodeStreamResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, agg) {
		t.Errorf("decoded result differs from original")
	}
	// Re-encoding the decode must yield a parseable blob of the same length
	// (map iteration order may differ, so bytes can permute).
	if blob2 := got.AppendBinary(nil); len(blob2) != len(blob) {
		t.Errorf("re-encoded length %d != %d", len(blob2), len(blob))
	}
}

// TestAccumulatorCheckpointExact is the durability contract: serializing an
// accumulator mid-stream, restoring it in a "new process", and feeding the
// remaining records must be indistinguishable from never having stopped —
// exact equality, not approximate.
func TestAccumulatorCheckpointExact(t *testing.T) {
	cfg := synthgen.Small(1, 2)
	dt := synthgen.GenerateInMemory(cfg)[0]
	if len(dt.Records) < 100 {
		t.Fatalf("trace too short: %d records", len(dt.Records))
	}

	for _, cut := range []int{1, len(dt.Records) / 3, len(dt.Records) / 2, len(dt.Records) - 1} {
		// Continuous reference.
		ref := NewStreamAccumulator(dt.Device, marshalOpts())
		for i := range dt.Records {
			ref.Feed(&dt.Records[i])
		}
		want := ref.Finish()

		// Checkpointed run: feed a prefix, serialize, restore, feed the rest.
		a := NewStreamAccumulator(dt.Device, marshalOpts())
		for i := 0; i < cut; i++ {
			a.Feed(&dt.Records[i])
		}
		blob := a.AppendState(nil)
		b, err := RestoreStreamAccumulator(blob, marshalOpts())
		if err != nil {
			t.Fatalf("cut %d: restore: %v", cut, err)
		}
		if b.Records() != int64(cut) {
			t.Fatalf("cut %d: restored records = %d", cut, b.Records())
		}
		for i := cut; i < len(dt.Records); i++ {
			b.Feed(&dt.Records[i])
		}
		got := b.Finish()

		if got.Ledger.Total != want.Ledger.Total {
			t.Errorf("cut %d: total %v != %v", cut, got.Ledger.Total, want.Ledger.Total)
		}
		if !sameResult(got, want) {
			t.Errorf("cut %d: checkpointed result differs from continuous run", cut)
		}
	}
}

// TestAccumulatorSnapshotUnperturbed: taking a state snapshot must not
// change what the live accumulator goes on to compute.
func TestAccumulatorSnapshotUnperturbed(t *testing.T) {
	cfg := synthgen.Small(1, 1)
	dt := synthgen.GenerateInMemory(cfg)[0]

	a := NewStreamAccumulator(dt.Device, marshalOpts())
	ref := NewStreamAccumulator(dt.Device, marshalOpts())
	for i := range dt.Records {
		a.Feed(&dt.Records[i])
		ref.Feed(&dt.Records[i])
		if i%97 == 0 {
			a.AppendState(nil)
		}
	}
	if got, want := a.Finish(), ref.Finish(); !sameResult(got, want) {
		t.Error("AppendState perturbed the live accumulator")
	}
}

// TestDecodeRejectsCorruption: truncations and bit flips must yield errors,
// never panics or silent misreads of the structural fields.
func TestDecodeRejectsCorruption(t *testing.T) {
	cfg := synthgen.Small(1, 1)
	dt := synthgen.GenerateInMemory(cfg)[0]
	a := NewStreamAccumulator(dt.Device, marshalOpts())
	for i := range dt.Records {
		a.Feed(&dt.Records[i])
	}
	blob := a.AppendState(nil)

	if _, err := RestoreStreamAccumulator(nil, marshalOpts()); err == nil {
		t.Error("empty blob accepted")
	}
	for _, cut := range []int{1, 2, len(blob) / 2, len(blob) - 1} {
		if _, err := RestoreStreamAccumulator(blob[:cut], marshalOpts()); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage must be rejected too.
	if _, err := RestoreStreamAccumulator(append(bytes.Clone(blob), 0xab), marshalOpts()); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown version byte.
	bad := bytes.Clone(blob)
	bad[0] = 0x7f
	if _, err := RestoreStreamAccumulator(bad, marshalOpts()); err == nil {
		t.Error("unknown version accepted")
	}
}
