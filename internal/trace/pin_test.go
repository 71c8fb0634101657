package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"netenergy/internal/synthgen"
)

// TestSerializePinned pins the METR-3 writer's bytes for one fixed synthgen
// seed. The bytes are the column layout plus the LZ encoder's choice of
// matches, so the hash moves when either moves — a change of on-disk
// format, of the generator, or of the encoder's match policy, which the
// format leaves free — and never in a refactor. It moved once for the
// LZ4-style match finder (was 2c5de327…, 352 723 bytes); files written
// before that still read (TestParentEncoderFileReads). The size must not
// grow past the old encoder's.
func TestSerializePinned(t *testing.T) {
	const (
		pinned  = "a4cf84ca5f18a59d66ffa3ea695a4c5b1248fa081114ea53f5525c062775ce59"
		maxSize = 352723
	)
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
	if buf.Len() > maxSize {
		t.Errorf("%d records serialise to %d bytes, more than the %d the previous encoder wrote",
			len(dt.Records), buf.Len(), maxSize)
	}
}
