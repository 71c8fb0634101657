package ingest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
)

// TestParentCheckpointRestores is the same-bytes proof for the checkpoint
// format: checkpoint/testdata/parent-v2.ck was written by the last build
// that still carried the unattributed retired aggregate (empty, as in every
// file since the ledger), by an ingestd that a 14-device fleetsim run had
// left with 8 sessions closed and 6 open; parent-v2.headline.json is what
// that build's own /headline answered after restoring it. This build must
// restore it to that, and to that again from the checkpoint it then writes
// itself: counts and span exactly, sums to the last few ulps (open sessions
// merge into a snapshot in map order, so the float additions reorder from
// one call to the next).
func TestParentCheckpointRestores(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("checkpoint", "testdata", "parent-v2.ck"))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := os.ReadFile(filepath.Join("checkpoint", "testdata", "parent-v2.headline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]float64
	if err := json.Unmarshal(pinned, &want); err != nil {
		t.Fatal(err)
	}
	check := func(label string, h LiveHeadline) {
		t.Helper()
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]float64
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Errorf("%s: %d fields, pinned %d", label, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || math.Abs(g-w) > 1e-12*math.Abs(w) {
				t.Errorf("%s: %s = %v, pinned %v", label, k, g, w)
			}
		}
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ck-00000001.ck"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 3, CheckpointDir: dir, CheckpointInterval: time.Hour}
	a := startServer(t, cfg)
	check("restored", a.Headline())
	if err := a.SaveCheckpoint(); err != nil {
		t.Fatal(err)
	}
	a.Kill()
	rewrite, err := os.Stat(filepath.Join(dir, "ck-00000002.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if ck := latestCheckpoint(t, dir); ck.Gen != 2 || ck.Snap.Legacy != nil || rewrite.Size() >= int64(len(file)) {
		t.Fatalf("rewritten generation %d: legacy slot %d bytes, file %d bytes (parent's: %d)",
			ck.Gen, len(ck.Snap.Legacy), rewrite.Size(), len(file))
	}
	check("restored from this build's rewrite", startServer(t, cfg).Headline())
}

// checkpointFile wraps a payload in the checkpoint file container, written
// out here rather than taken from the package so the refused formats below
// are pinned to the bytes on disk.
func checkpointFile(payload []byte) []byte {
	b := []byte("NECKPT1\n")
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

// TestOldFormatsRefused: a payload-v1 generation, and a v2 generation whose
// legacy slot holds closed sessions, are refused loudly. Start fails naming
// the file — it neither falls back to the older, valid generation beside it
// nor starts empty.
func TestOldFormatsRefused(t *testing.T) {
	src := startServer(t, Config{Shards: 1})
	streamTrace(t, src.Addr().String(), synthgen.GenerateInMemory(synthgen.Small(1, 1))[0])
	aggregate := src.Snapshot().AppendBinary(nil) // one closed session's worth

	// No devices, no ledger, zero fence: version, nDevices, legacy slot, and
	// for v2 nLedger, epoch, incLen.
	v1 := []byte{1, 0, 0}
	v2 := binary.AppendUvarint([]byte{2, 0, 1}, uint64(len(aggregate)))
	v2 = append(append(v2, aggregate...), 0, 0, 0)

	for name, payload := range map[string][]byte{"payload v1": v1, "aggregate holds sessions": v2} {
		t.Run(name, func(t *testing.T) {
			file := checkpointFile(payload)

			dir := t.TempDir()
			store, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := store.Save(&checkpoint.Snapshot{Devices: []checkpoint.DeviceState{{Device: "older", Seq: 5}}}); err != nil {
				t.Fatal(err)
			}
			refused := filepath.Join(dir, "ck-00000002.ck")
			if err := os.WriteFile(refused, file, 0o644); err != nil {
				t.Fatal(err)
			}
			s := NewServer(Config{Addr: "127.0.0.1:0", Shards: 1, CheckpointDir: dir})
			err = s.Start()
			if err == nil {
				s.Kill()
				t.Fatal("Start restored around a refused generation")
			}
			if !errors.Is(err, checkpoint.ErrUnsupported) || !strings.Contains(err.Error(), refused) {
				t.Fatalf("Start error %q: want ErrUnsupported naming %s", err, refused)
			}
		})
	}
}
