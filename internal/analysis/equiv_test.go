package analysis

// Differential equivalence harness for the columnar feed path: randomized
// fixed-seed traces are pushed through the per-record path (Feed), the
// columnar path (FeedBatch over randomly cut batches), and the on-disk
// METR-3 container (StreamBatches over a serialized round trip), and every
// observable — serialized accumulator state, finished result bytes, the
// headline numbers — must match bit-for-bit. Feed and FeedBatch share the
// same feed helpers by construction (stream.go), so any divergence here
// means the batch materialization or the METR-3 codec changed semantics.
// TestBatchEqualsStream holds energy.Process to the same standard over the
// same traces: both run energy.Replay, so their ledgers are equal byte for
// byte, and the two pinned hashes below fix what those bytes are.
//
// `make ci` runs this via the equiv target; equivSeeds fixed-seed traces
// keep the check deterministic across machines.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"netenergy/internal/energy"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// equivSeeds is how many independent random traces the harness replays.
const equivSeeds = 120

// feedPerRecord drives the canonical per-record path.
func feedPerRecord(recs []trace.Record, opts energy.Options) *StreamAccumulator {
	acc := NewStreamAccumulator("equiv-dev", opts)
	for i := range recs {
		acc.Feed(&recs[i])
	}
	return acc
}

// feedColumnar drives the batch path: the stream is cut into batches of
// random length (1..97 records, seed-deterministic) and fed via FeedBatch,
// mirroring how the ingest shard and the METR-3 reader deliver records.
func feedColumnar(recs []trace.Record, opts energy.Options, seed int64) *StreamAccumulator {
	r := rand.New(rand.NewSource(seed ^ 0x5eedba7c))
	acc := NewStreamAccumulator("equiv-dev", opts)
	var b trace.RecordBatch
	for i := 0; i < len(recs); {
		j := i + 1 + r.Intn(97)
		if j > len(recs) {
			j = len(recs)
		}
		b.Reset()
		for k := i; k < j; k++ {
			b.Append(&recs[k])
		}
		acc.FeedBatch(&b)
		i = j
	}
	return acc
}

// TestColumnarEquivalence is the differential harness proper.
func TestColumnarEquivalence(t *testing.T) {
	opts := energy.DefaultOptions()
	for seed := int64(0); seed < equivSeeds; seed++ {
		recs := synthgen.EquivRecords(seed)

		accA := feedPerRecord(recs, opts)
		accB := feedColumnar(recs, opts, seed)

		// Serialized accumulator state must be bit-identical before any
		// finalization — this covers every intermediate field, not just
		// what the report surfaces.
		stateA := accA.AppendState(nil)
		stateB := accB.AppendState(nil)
		if !bytes.Equal(stateA, stateB) {
			t.Fatalf("seed %d: accumulator state diverges between Feed and FeedBatch (%d vs %d bytes)",
				seed, len(stateA), len(stateB))
		}
		if accA.records != accB.records {
			t.Fatalf("seed %d: record counts diverge: %d vs %d", seed, accA.records, accB.records)
		}

		resA := accA.Finish()
		resB := accB.Finish()
		binA := resA.AppendBinary(nil)
		if !bytes.Equal(binA, resB.AppendBinary(nil)) {
			t.Fatalf("seed %d: finished results diverge between Feed and FeedBatch", seed)
		}
		// Headlines, spelled out for diagnostics (already covered by the
		// byte compare above).
		if resA.Ledger.Total != resB.Ledger.Total {
			t.Fatalf("seed %d: total energy %v vs %v", seed, resA.Ledger.Total, resB.Ledger.Total)
		}
		if resA.Ledger.BackgroundFraction() != resB.Ledger.BackgroundFraction() {
			t.Fatalf("seed %d: background fraction diverges", seed)
		}
		if resA.DecodeErrors != resB.DecodeErrors {
			t.Fatalf("seed %d: decode errors %d vs %d", seed, resA.DecodeErrors, resB.DecodeErrors)
		}

		// Third path: through the METR-3 container on disk. StreamBatches
		// consumes the decoder's zero-copy batches, so this also proves the
		// codec round-trips every field the accumulator reads.
		dt := &trace.DeviceTrace{Device: "equiv-dev", Start: recs[0].TS, Records: recs}
		var buf bytes.Buffer
		if err := dt.SerializeColumnar(&buf); err != nil {
			t.Fatalf("seed %d: serialize: %v", seed, err)
		}
		br, err := trace.NewBatchReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		resC, err := StreamBatches(br, opts)
		if err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		if !bytes.Equal(binA, resC.AppendBinary(nil)) {
			t.Fatalf("seed %d: METR-3 StreamBatches result diverges from per-record path", seed)
		}
	}
}

// TestBatchEqualsStream: the study's pass (energy.Process) and the stream
// accumulator are one computation. Over every equivalence trace their
// ledgers serialise to the same bytes, they skip the same packets over the
// same span, and the per-packet energies Process hands the flow analyses
// add up to the ledger total. What the rule itself must compute is pinned
// independently, against hand-worked radio numbers, in energy_test.go.
func TestBatchEqualsStream(t *testing.T) {
	opts := energy.DefaultOptions()
	for seed := int64(0); seed < equivSeeds; seed++ {
		recs := synthgen.EquivRecords(seed)
		batch, err := energy.Process(&trace.DeviceTrace{Device: "equiv-dev", Records: recs}, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for name, acc := range map[string]*StreamAccumulator{
			"Feed":      feedPerRecord(recs, opts),
			"FeedBatch": feedColumnar(recs, opts, seed),
		} {
			str := acc.Finish()
			if !bytes.Equal(appendLedger(nil, batch.Ledger), appendLedger(nil, str.Ledger)) {
				t.Fatalf("seed %d: Process and %s ledgers differ", seed, name)
			}
			if batch.DecodeErrors != str.DecodeErrors || batch.Span != str.Span {
				t.Fatalf("seed %d: Process skipped %d over %v, %s %d over %v",
					seed, batch.DecodeErrors, batch.Span, name, str.DecodeErrors, str.Span)
			}
		}
		var sum float64
		for i := range batch.Packets {
			sum += batch.Packets[i].Energy
		}
		if total := batch.Ledger.Total; math.Abs(sum-total) > 1e-9*total {
			t.Fatalf("seed %d: packets carry %v J, ledger %v J", seed, sum, total)
		}
	}
}

// TestStatePinned pins the accumulator's bytes — mid-stream state and
// finished result — for one equivalence trace. The hashes were computed at
// the commit before energy.Process and the accumulator were folded onto one
// kernel; a change to either is a change of the checkpoint format or of a
// float sum's association, never a refactor.
func TestStatePinned(t *testing.T) {
	recs := synthgen.EquivRecords(7)
	cut := len(recs) / 2
	acc := feedPerRecord(recs[:cut], energy.DefaultOptions())
	pinned := func(what string, b []byte, want string) {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: %d bytes with sha256 %s, pinned %s", what, len(b), got, want)
		}
	}
	pinned("AppendState after 243 of 486 records", acc.AppendState(nil),
		"d9e49c2dfee19a419b752bab3b4dc90587fc5facb727b39a11502f7e8fe389a4")
	for i := cut; i < len(recs); i++ {
		acc.Feed(&recs[i])
	}
	pinned("Finish().AppendBinary", acc.Finish().AppendBinary(nil),
		"b501fe88446d926731b57b4a6167ccc101ca8c554e913780bd3e237b4420cb21")
}
