package trace

import "io"

// RecordBatch is the arena-backed columnar form of a run of records:
// parallel slices of per-record fields plus one shared byte arena for
// variable-length data (packet payloads and app names). The analysis and
// ingest hot paths consume batches column-at-a-time (analysis.FeedBatch,
// ingest shard apply), and the METR-3 container stores exactly these
// columns on disk, so a block decodes into a batch without per-record
// reshaping.
//
// Ownership: a batch built with Append owns its arena (Append copies the
// record's bytes in). A batch produced by a decoder may alias the
// decoder's block buffer instead — valid until the next block is loaded,
// like Reader.Next's Payload contract. Slice returns a read-only view
// sharing the parent's arrays; appending to a view corrupts the parent.
type RecordBatch struct {
	Types []RecordType
	TS    []Timestamp
	App   []uint32

	// Flags packs the single-bit fields: for RecPacket, bit 0 is the
	// Direction and bit 1 the Network; for RecScreen, bit 0 is ScreenOn.
	// Zero for other types.
	Flags []uint8

	// Aux is the per-type secondary byte: ProcState for RecPacket and
	// RecProcState, UIEventKind for RecUIEvent. Zero for other types.
	Aux []uint8

	// Off has Len()+1 entries: record i's variable-length bytes (packet
	// payload or app name) are Blob[Off[i]:Off[i+1]]. Offsets are
	// absolute into Blob, so views share the arena without rebasing.
	Off  []uint32
	Blob []byte
}

// packetFlags packs a packet's direction and network into a Flags byte.
func packetFlags(dir Direction, net Network) uint8 {
	return uint8(dir)&1 | (uint8(net)&1)<<1
}

// Len returns the number of records in the batch.
func (b *RecordBatch) Len() int { return len(b.Types) }

// Reset empties the batch, keeping capacity.
func (b *RecordBatch) Reset() {
	b.Types = b.Types[:0]
	b.TS = b.TS[:0]
	b.App = b.App[:0]
	b.Flags = b.Flags[:0]
	b.Aux = b.Aux[:0]
	b.Off = b.Off[:0]
	b.Blob = b.Blob[:0]
}

// Append adds one record, copying its payload or app name into the
// batch's arena.
func (b *RecordBatch) Append(r *Record) {
	if len(b.Off) == 0 {
		b.Off = append(b.Off, uint32(len(b.Blob)))
	}
	b.Types = append(b.Types, r.Type)
	b.TS = append(b.TS, r.TS)
	b.App = append(b.App, r.App)
	var flags, aux uint8
	switch r.Type {
	case RecAppName:
		b.Blob = append(b.Blob, r.AppName...)
	case RecPacket:
		flags = packetFlags(r.Dir, r.Net)
		aux = uint8(r.State)
		b.Blob = append(b.Blob, r.Payload...)
	case RecProcState:
		aux = uint8(r.State)
	case RecUIEvent:
		aux = uint8(r.UIKind)
	case RecScreen:
		if r.ScreenOn {
			flags = 1
		}
	}
	b.Flags = append(b.Flags, flags)
	b.Aux = append(b.Aux, aux)
	b.Off = append(b.Off, uint32(len(b.Blob)))
}

// Bytes returns record i's variable-length bytes (packet payload or app
// name), aliasing the arena.
func (b *RecordBatch) Bytes(i int) []byte {
	return b.Blob[b.Off[i]:b.Off[i+1]]
}

// Record materialises record i into dst in the canonical flat form:
// exactly the fields relevant to the type are set, the rest zero.
// Packet payloads alias the arena; app names are copied into a string.
func (b *RecordBatch) Record(i int, dst *Record) {
	typ := b.Types[i]
	*dst = Record{Type: typ, TS: b.TS[i]}
	switch typ {
	case RecAppName:
		dst.App = b.App[i]
		dst.AppName = string(b.Bytes(i))
	case RecPacket:
		dst.App = b.App[i]
		f := b.Flags[i]
		dst.Dir = Direction(f & 1)
		dst.Net = Network((f >> 1) & 1)
		dst.State = ProcState(b.Aux[i])
		dst.Payload = b.Bytes(i)
	case RecProcState:
		dst.App = b.App[i]
		dst.State = ProcState(b.Aux[i])
	case RecUIEvent:
		dst.App = b.App[i]
		dst.UIKind = UIEventKind(b.Aux[i])
	case RecScreen:
		dst.ScreenOn = b.Flags[i]&1 != 0
	}
}

// AppendFrom appends record i of src, copying its column values and
// variable-length bytes directly between arenas — no intermediate Record
// materialisation. The pushdown scan's app filter compacts matching rows
// with it so filtering stays columnar.
func (b *RecordBatch) AppendFrom(src *RecordBatch, i int) {
	if len(b.Off) == 0 {
		b.Off = append(b.Off, uint32(len(b.Blob)))
	}
	b.Types = append(b.Types, src.Types[i])
	b.TS = append(b.TS, src.TS[i])
	b.App = append(b.App, src.App[i])
	b.Flags = append(b.Flags, src.Flags[i])
	b.Aux = append(b.Aux, src.Aux[i])
	b.Blob = append(b.Blob, src.Bytes(i)...)
	b.Off = append(b.Off, uint32(len(b.Blob)))
}

// Slice returns a read-only view of records [lo, hi), sharing the
// parent's column arrays and arena.
func (b *RecordBatch) Slice(lo, hi int) RecordBatch {
	return RecordBatch{
		Types: b.Types[lo:hi],
		TS:    b.TS[lo:hi],
		App:   b.App[lo:hi],
		Flags: b.Flags[lo:hi],
		Aux:   b.Aux[lo:hi],
		Off:   b.Off[lo : hi+1],
		Blob:  b.Blob,
	}
}

// BatchReader streams a trace file as RecordBatches. For METR-3 each batch
// is one decoded block served zero-copy; for the flat stream records are
// assembled into batches of batchAssembleSize. The returned batch is only
// valid until the next call to Next.
type BatchReader struct {
	r     *Reader
	owned RecordBatch
}

// batchAssembleSize is the batch length the flat fallback assembles; one
// METR-3 block holds records of roughly the same span.
const batchAssembleSize = 4096

// NewBatchReader sniffs the container and returns a batch-at-a-time
// reader over it.
func NewBatchReader(r io.Reader) (*BatchReader, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	return &BatchReader{r: tr}, nil
}

// Device returns the device identifier from the file header.
func (b *BatchReader) Device() string { return b.r.Device() }

// Start returns the trace start timestamp from the file header.
func (b *BatchReader) Start() Timestamp { return b.r.Start() }

// Format returns the container format the reader sniffed.
func (b *BatchReader) Format() Format { return b.r.Format() }

// Next returns the next batch of records in file order, or io.EOF at a
// clean end of stream.
func (b *BatchReader) Next() (*RecordBatch, error) {
	if b.r.blocks != nil {
		return b.r.blocks.nextBatch()
	}
	b.owned.Reset()
	for b.owned.Len() < batchAssembleSize {
		rec, err := b.r.Next()
		if err == io.EOF {
			if b.owned.Len() == 0 {
				return nil, io.EOF
			}
			return &b.owned, nil
		}
		if err != nil {
			return nil, err
		}
		b.owned.Append(rec)
	}
	return &b.owned, nil
}
