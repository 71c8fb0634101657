package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
)

// The METR-2 payload codec: a block's payload is its records as v1-style
// frames, DEFLATE-compressed.
//
//	payload := DEFLATE(record*)
//	record  := type:byte len:uvarint body:bytes       (body as in v1)
//
// Decode only: METR-2 has no writer. Files older builds wrote stay readable
// (testdata/legacy/u00.metr2 is one).

// decodeRowBlock is the METR-2 container.decode: it inflates comp into raw
// (reusing sc's DEFLATE reader via flate.Resetter) and walks the record
// frames into dst.
func decodeRowBlock(sc *blockScratch, comp, raw []byte, h blockHeader, dst *RecordBatch) error {
	if sc.compRd == nil {
		sc.compRd = bytes.NewReader(comp)
		sc.fr = flate.NewReader(sc.compRd)
	} else {
		sc.compRd.Reset(comp)
		if err := sc.fr.(flate.Resetter).Reset(sc.compRd, nil); err != nil {
			return err
		}
	}
	if _, err := io.ReadFull(sc.fr, raw); err != nil {
		return mapReadErr(err, ErrCorrupt, "inflating block")
	}
	// dst's arena is raw itself: Append moves each payload (or app name)
	// down to the front of raw. The write end never overtakes the read
	// position, because every frame spends at least two header bytes ahead
	// of the bytes it contributes.
	dst.Reset()
	dst.Blob = raw[:0:len(raw)]
	var rec Record
	last := h.first
	pos := 0
	for i := 0; i < h.count; i++ {
		// One record frame: type, len, body.
		b := raw[pos:]
		if len(b) == 0 {
			return ErrTruncated
		}
		blen, n := binary.Uvarint(b[1:])
		if n <= 0 || blen > maxRecordLen {
			return ErrCorrupt
		}
		if uint64(len(b)-1-n) < blen {
			return ErrTruncated
		}
		end := 1 + n + int(blen)
		ts, err := decodeBody(RecordType(b[0]), b[1+n:end], last, &rec)
		if err != nil {
			return err
		}
		dst.Append(&rec)
		pos += end
		last = ts
	}
	// The last record must land exactly on the block's declared end state:
	// a timestamp mismatch or leftover undeclared bytes mean the block was
	// crafted or mis-framed.
	if last != h.lastTS || pos != len(raw) {
		return ErrCorrupt
	}
	return nil
}
