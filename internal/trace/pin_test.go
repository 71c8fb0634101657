package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// TestSerializePinned pins the blocked containers' bytes for one fixed
// synthgen seed. The hashes were computed at the commit before the two
// writers were folded into one frame writer; a change to either is a change
// of on-disk format (or of the generator), never a refactor.
func TestSerializePinned(t *testing.T) {
	cfg := synthgen.Small(1, 2)
	cfg.Seed = 13
	dt := synthgen.GenerateDevice(cfg, 0)
	for _, c := range []struct {
		format trace.Format
		sha256 string
	}{
		{trace.FormatBlocked, "17c421791d0566c60b8118d58ca3ea9c634775066c61a98852a79aded2dd7160"},
		{trace.FormatColumnar, "2c5de3277f176d1c235a7efdebe23d22ad0a9802b235a8dc4427ddcf1b5a918e"},
	} {
		var buf bytes.Buffer
		if err := dt.SerializeFormat(&buf, c.format); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%v: %d records serialise to %d bytes with sha256 %s, pinned %s",
				c.format, len(dt.Records), buf.Len(), got, c.sha256)
		}
	}
}
