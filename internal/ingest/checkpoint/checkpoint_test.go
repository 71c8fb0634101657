package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Devices: []DeviceState{
			{Device: "u000", Seq: 1234, Acc: []byte{1, 2, 3, 4}},
			{Device: "u001", Seq: 99, Acc: nil}, // retired: seq only
			{Device: "u002", Seq: 0, Acc: []byte{}},
		},
	}
}

// TestEncodeDecodeRoundtrip: payload codec reproduces the snapshot.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatal(err)
	}
	// Encode normalizes empty non-nil Acc to present-but-empty; compare
	// semantically.
	if len(got.Devices) != len(want.Devices) {
		t.Fatalf("devices = %d, want %d", len(got.Devices), len(want.Devices))
	}
	for i := range want.Devices {
		w, g := want.Devices[i], got.Devices[i]
		if g.Device != w.Device || g.Seq != w.Seq || !bytes.Equal(g.Acc, w.Acc) ||
			(g.Acc == nil) != (w.Acc == nil) {
			t.Errorf("device %d: got %+v want %+v", i, g, w)
		}
	}
	if got.Legacy != nil {
		t.Errorf("decoded a legacy aggregate nobody wrote: %v", got.Legacy)
	}

	empty := &Snapshot{}
	got, err = Decode(Encode(empty))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Devices) != 0 || got.Legacy != nil {
		t.Errorf("empty snapshot roundtrip: %+v", got)
	}
}

// TestSaveLoadGenerations: saves are atomic renames with monotonic
// generations, old generations are pruned to two, and the sequence
// continues across a reopen (restart).
func TestSaveLoadGenerations(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		snap := &Snapshot{Devices: []DeviceState{{Device: "d", Seq: int64(i)}}}
		_, gen, err := st.Save(snap)
		if err != nil {
			t.Fatal(err)
		}
		if gen != uint64(i) {
			t.Fatalf("gen = %d, want %d", gen, i)
		}
	}
	if gens := st.generations(); len(gens) != keepGenerations {
		t.Fatalf("retained %d generations, want %d", len(gens), keepGenerations)
	}

	ck, err := st.LoadLatest(nil)
	if err != nil || ck == nil {
		t.Fatalf("LoadLatest: %v %v", ck, err)
	}
	if ck.Gen != 5 || ck.Snap.Devices[0].Seq != 5 {
		t.Fatalf("loaded gen %d seq %d", ck.Gen, ck.Snap.Devices[0].Seq)
	}
	if onDisk, err := os.ReadFile(genPath(dir, 5)); err != nil {
		t.Fatal(err)
	} else if want, err := DecodeFile(onDisk); err != nil || !reflect.DeepEqual(ck.Snap, want) {
		t.Fatalf("Snap is not the generation's snapshot (%v)", err)
	}

	// Reopen (simulated restart): generation counter must continue, not
	// restart at 1 and overwrite history.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, gen, err := st2.Save(&Snapshot{}); err != nil || gen != 6 {
		t.Fatalf("post-reopen gen = %d (%v), want 6", gen, err)
	}
}

// TestCorruptFallsBack: a flipped byte in the newest generation must fall
// back to the previous one; same for a torn (truncated) write.
func TestCorruptFallsBack(t *testing.T) {
	for _, mode := range []string{"flip", "truncate", "garbage"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			p1, _, err := st.Save(&Snapshot{Devices: []DeviceState{{Device: "d", Seq: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			p2, _, err := st.Save(&Snapshot{Devices: []DeviceState{{Device: "d", Seq: 2}}})
			if err != nil {
				t.Fatal(err)
			}

			damage := func(path string) {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				switch mode {
				case "flip":
					b[len(b)-1] ^= 0xff
				case "truncate":
					b = b[:len(b)/2]
				case "garbage":
					b = []byte("not a checkpoint at all")
				}
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			damage(p2)
			ck, err := st.LoadLatest(nil)
			if err != nil || ck == nil {
				t.Fatalf("LoadLatest after corruption: %v %v", ck, err)
			}
			if ck.Gen != 1 || ck.Snap.Devices[0].Seq != 1 {
				t.Fatalf("fell back to gen %d seq %d, want gen 1 seq 1", ck.Gen, ck.Snap.Devices[0].Seq)
			}

			// Every generation damaged: there is nothing to fall back to, and
			// (nil, nil) would read as a fresh directory. The error names the
			// directory and each file it gave up on.
			damage(p1)
			ck, err = st.LoadLatest(nil)
			if ck != nil || err == nil {
				t.Fatalf("LoadLatest with every generation damaged: %v %v, want an error", ck, err)
			}
			for _, want := range []string{dir, p1, p2} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not name %s: %v", want, err)
				}
			}
		})
	}
}

// TestValidateRejection: LoadLatest consults the caller's validator and
// falls back when it rejects the newest snapshot.
func TestValidateRejection(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	st.Save(&Snapshot{Devices: []DeviceState{{Device: "ok", Seq: 1}}})  //nolint:errcheck
	st.Save(&Snapshot{Devices: []DeviceState{{Device: "bad", Seq: 2}}}) //nolint:errcheck
	ck, err := st.LoadLatest(func(s *Snapshot) error {
		if s.Devices[0].Device == "bad" {
			return ErrCorrupt
		}
		return nil
	})
	if err != nil || ck == nil || ck.Gen != 1 {
		t.Fatalf("validator fallback failed: %+v err=%v", ck, err)
	}
}

// TestNoCheckpoint: an empty directory loads cleanly as "no state".
func TestNoCheckpoint(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := st.LoadLatest(nil); ck != nil || err != nil {
		t.Fatalf("expected empty load, got %v %v", ck, err)
	}
}

// TestDecodeRejects: malformed payloads error instead of panicking or
// over-allocating.
func TestDecodeRejects(t *testing.T) {
	valid := Encode(sampleSnapshot())
	cases := [][]byte{
		nil,
		{},
		{0xff},                           // bad version
		valid[:1],                        // header only
		valid[:len(valid)/2],             // truncated mid-device
		append(bytes.Clone(valid), 0x00), // trailing bytes
	}
	// Huge claimed device count must not allocate.
	huge := []byte{payloadVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	cases = append(cases, huge)
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: accepted malformed payload", i)
		}
	}
	if !reflect.DeepEqual(mustDecode(t, valid), mustDecode(t, valid)) {
		t.Error("decode not deterministic")
	}
}

func mustDecode(t *testing.T, b []byte) *Snapshot {
	t.Helper()
	s, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// withLegacy re-encodes s the way the builds before this one did: the
// legacy slot holds blob instead of 0x00. It finds the slot by encoding the
// device section alone, which Encode ends with four zero bytes (legacy,
// nLedger, epoch, incLen).
func withLegacy(s *Snapshot, blob []byte) []byte {
	full := Encode(s)
	devices := Encode(&Snapshot{Devices: s.Devices})
	slot := len(devices) - 4
	b := append(bytes.Clone(full[:slot]), 1)
	b = binary.AppendUvarint(b, uint64(len(blob)))
	b = append(b, blob...)
	return append(b, full[slot+1:]...)
}

// fileOf wraps a payload in the file container.
func fileOf(payload []byte) []byte {
	b := append([]byte(nil), fileMagic...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// TestLegacySlot: a file from a build that still wrote the unattributed
// aggregate decodes with the blob handed over as Legacy and everything else
// intact — what to make of it is the restorer's call — and re-encodes with
// the slot empty.
func TestLegacySlot(t *testing.T) {
	want := sampleSnapshot()
	want.Ledger = []RetiredRecord{{Device: "u001", Seq: 99, CRC: crc32.ChecksumIEEE([]byte{7}), Blob: []byte{7}}}
	got, err := DecodeFile(fileOf(withLegacy(want, []byte{9, 8, 7})))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Legacy, []byte{9, 8, 7}) {
		t.Fatalf("Legacy = %v", got.Legacy)
	}
	if len(got.Devices) != len(want.Devices) || len(got.Ledger) != 1 {
		t.Fatalf("decoded around the legacy slot: %+v", got)
	}
	if again := mustDecode(t, Encode(got)); again.Legacy != nil {
		t.Error("Encode wrote the legacy slot")
	}
	for cut := 1; cut < 8; cut++ { // truncated inside the slot
		b := withLegacy(&Snapshot{}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		if _, err := Decode(b[:len(b)-3-cut]); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut %d: %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestUnsupportedIsNotFallenBackFrom replaces TestDecodeV1ForwardCompat: a
// payload-v1 file (a v2 body cut before the ledger, version byte 1) is
// ErrUnsupported rather than restored, and LoadLatest — which skips a
// corrupt newest generation — fails on an unsupported one, naming the file,
// whether the decoder or the caller's validator says so.
func TestUnsupportedIsNotFallenBackFrom(t *testing.T) {
	v1 := Encode(sampleSnapshot())
	v1 = v1[:len(v1)-3] // drop nLedger and the fence
	v1[0] = 1
	if _, err := Decode(v1); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("v1 payload: %v, want ErrUnsupported", err)
	}

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(&Snapshot{Devices: []DeviceState{{Device: "older", Seq: 1}}}); err != nil {
		t.Fatal(err)
	}
	newest := genPath(dir, 2)
	if err := os.WriteFile(newest, fileOf(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if ck, err := st.LoadLatest(nil); ck != nil || !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), newest) {
		t.Fatalf("v1 newest generation: %+v, %v; want ErrUnsupported naming %s", ck, err, newest)
	}

	if st, err = Open(dir); err != nil { // sees generation 2
		t.Fatal(err)
	}
	if _, _, err := st.Save(&Snapshot{Devices: []DeviceState{{Device: "refused", Seq: 2}}}); err != nil {
		t.Fatal(err)
	}
	ck, err := st.LoadLatest(func(*Snapshot) error { return fmt.Errorf("%w: says the validator", ErrUnsupported) })
	if ck != nil || !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), genPath(dir, 3)) {
		t.Fatalf("validator-refused generation: %+v, %v", ck, err)
	}
}

// TestParentWrittenFile: testdata/parent-v2.ck was written by the commit
// before the aggregate was removed (ingestd after a 14-device fleetsim run:
// 8 sessions closed, 6 open). It must keep decoding, with its empty
// aggregate surfaced as Legacy; internal/ingest restores it to its pinned
// headline.
func TestParentWrittenFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "parent-v2.ck"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeFile(b)
	if err != nil {
		t.Fatal(err)
	}
	var open int
	for _, d := range snap.Devices {
		if d.Acc != nil {
			open++
		}
	}
	if len(snap.Ledger) != 8 || open != 6 || snap.Legacy == nil {
		t.Fatalf("ledger %d, open sessions %d, legacy %d bytes", len(snap.Ledger), open, len(snap.Legacy))
	}
}

// TestLedgerRoundtrip: the v2 ledger round-trips exactly, blob CRCs are
// enforced, and encoding is deterministic regardless of ledger input order.
func TestLedgerRoundtrip(t *testing.T) {
	blob := []byte{5, 4, 3, 2, 1}
	snap := &Snapshot{
		Devices: []DeviceState{{Device: "live", Seq: 7, Acc: []byte{1}}},
		Ledger: []RetiredRecord{
			{Device: "z-dev", Seq: 42, CRC: crc32.ChecksumIEEE(blob), Blob: blob},
			{Device: "a-dev", Seq: 9, CRC: crc32.ChecksumIEEE(nil), Blob: nil},
		},
	}
	got, err := Decode(Encode(snap))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ledger) != 2 || got.Ledger[0].Device != "a-dev" || got.Ledger[1].Device != "z-dev" {
		t.Fatalf("ledger order: %+v", got.Ledger)
	}
	if got.Ledger[1].Seq != 42 || !bytes.Equal(got.Ledger[1].Blob, blob) {
		t.Fatalf("ledger entry: %+v", got.Ledger[1])
	}

	// A flipped blob bit must fail the per-entry CRC.
	enc := Encode(snap)
	idx := bytes.Index(enc, blob)
	if idx < 0 {
		t.Fatal("blob not found in encoding")
	}
	enc[idx] ^= 0x80
	if _, err := Decode(enc); err == nil {
		t.Error("corrupt ledger blob accepted")
	}

	// Truncation anywhere in the ledger/fence tail must be rejected.
	full := Encode(snap)
	for cut := len(Encode(&Snapshot{Devices: snap.Devices})) - 3; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncated at %d/%d accepted", cut, len(full))
		}
	}
}

// withFence replaces the empty fence trailer Encode ends a payload with by
// the one an older build's cluster mode stamped: its epoch and incarnation.
func withFence(payload []byte, epoch uint64, incarnation string) []byte {
	b := binary.AppendUvarint(bytes.Clone(payload[:len(payload)-2]), epoch)
	b = binary.AppendUvarint(b, uint64(len(incarnation)))
	return append(b, incarnation...)
}

// TestFenceTrailerDiscarded: Encode ends a payload with an empty fence,
// epoch 0 and no incarnation. A file an older build stamped with a real one
// decodes to the same snapshot, and re-encodes without it; the trailer is
// still bounds-checked.
func TestFenceTrailerDiscarded(t *testing.T) {
	snap := sampleSnapshot()
	snap.Ledger = []RetiredRecord{{Device: "u001", Seq: 99, CRC: crc32.ChecksumIEEE([]byte{7}), Blob: []byte{7}}}
	plain := Encode(snap)
	if !bytes.HasSuffix(plain, []byte{0, 0}) {
		t.Fatalf("payload ends % x, want an empty fence", plain[len(plain)-4:])
	}
	fenced := withFence(plain, 4, "n1.1234.567")
	got := mustDecode(t, fenced)
	if !reflect.DeepEqual(got, mustDecode(t, plain)) {
		t.Errorf("a fenced payload decodes to %+v", got)
	}
	if again := Encode(got); !bytes.Equal(again, plain) {
		t.Errorf("re-encoded % x, want % x", again, plain)
	}
	for name, b := range map[string][]byte{
		"incarnation past its cap": withFence(plain, 1, strings.Repeat("x", maxIncarnation+1)),
		"incarnation cut short":    fenced[:len(fenced)-1],
		"bytes after the fence":    append(bytes.Clone(fenced), 0),
	} {
		if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
}

// TestTombstone: a directory holding an older build's handoff
// tombstone had its state shipped to another node; Open refuses it, naming
// the file, whatever else the directory holds.
func TestTombstone(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	tomb := filepath.Join(dir, "handoff.tomb")
	if err := os.WriteFile(tomb, []byte(`{"node":"n2","generation":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), tomb) {
		t.Fatalf("Open: %v, want ErrUnsupported naming %s", err, tomb)
	}
}
