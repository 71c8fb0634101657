package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"netenergy/internal/synthgen"
)

// TestSerializePinned pins the METR-3 writer's bytes for one fixed synthgen
// seed. The hash has held through every restructuring of the writer since
// METR-3 landed; a change to it is a change of on-disk format (or of the
// generator), never a refactor.
func TestSerializePinned(t *testing.T) {
	const pinned = "2c5de3277f176d1c235a7efdebe23d22ad0a9802b235a8dc4427ddcf1b5a918e"
	cfg := synthgen.Small(1, 2)
	cfg.Seed = 13
	dt := synthgen.GenerateDevice(cfg, 0)
	var buf bytes.Buffer
	if err := dt.SerializeColumnar(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != pinned {
		t.Errorf("%d records serialise to %d bytes with sha256 %s, pinned %s",
			len(dt.Records), buf.Len(), got, pinned)
	}
}
