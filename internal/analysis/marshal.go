package analysis

// Binary serialization for the streaming analyzer's state, used by the
// ingest daemon's crash-safe checkpoints (internal/ingest/checkpoint).
//
// Two forms are serializable: a completed/aggregated StreamResult, and the
// full mid-stream state of a StreamAccumulator (its result plus the derived
// per-app foreground state and the radio state machine position). Restoring
// an accumulator state and feeding it the remainder of a stream produces
// bit-identical results to feeding the whole stream into one process — the
// property the ingest crash-recovery test asserts.
//
// The encoding is explicit little-endian varint/fixed64, hand-rolled rather
// than gob/JSON so that (a) float64 values round-trip exactly via their bit
// patterns, (b) the decoder is allocation-bounded and safe to run on
// attacker-controlled bytes (it is fuzzed through the checkpoint fuzz
// target), and (c) the format is versioned independently of Go releases.

import (
	"encoding/binary"
	"errors"
	"math"

	"netenergy/internal/energy"
	"netenergy/internal/radio"
	"netenergy/internal/stats"
	"netenergy/internal/trace"
)

// Encoding limits: a decoder must never allocate unboundedly on a corrupt
// length field. The caps are far above anything a real fleet produces.
const (
	marshalMaxMapLen = 1 << 22
	marshalMaxStrLen = 1 << 12
	marshalMaxBins   = 1 << 22
)

const (
	streamResultVersion = 1
	accumulatorVersion  = 1
)

// ErrBadSnapshot means a serialized StreamResult or accumulator state could
// not be decoded (truncated, corrupt, or an unknown version).
var ErrBadSnapshot = errors.New("analysis: bad state snapshot")

// ---- encoder helpers ----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

func appendF64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ---- decoder ----

// dec is a cursor over a serialized snapshot. All reads are bounds-checked;
// the first failure latches err and turns every subsequent read into a
// cheap no-op, so call sites can decode a whole struct and check once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrBadSnapshot
	}
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > marshalMaxStrLen || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// mapLen validates a map/slice length field.
func (d *dec) mapLen() int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > marshalMaxMapLen {
		d.fail()
		return 0
	}
	return int(n)
}

// ---- Ledger ----

// appendLedger encodes l's public maps, synced first: l may be the ledger
// of an accumulator still being fed.
func appendLedger(b []byte, l *energy.Ledger) []byte {
	l.Sync()
	b = appendF64(b, l.Total)
	b = appendF64(b, l.IdleEnergy)
	b = appendUvarint(b, uint64(len(l.ByApp)))
	for _, app := range sortedKeys(l.ByApp) {
		b = appendUvarint(b, uint64(app))
		b = appendF64(b, l.ByApp[app])
	}
	b = appendUvarint(b, uint64(len(l.ByState)))
	for _, s := range sortedKeys(l.ByState) {
		b = append(b, byte(s))
		b = appendF64(b, l.ByState[s])
	}
	b = appendUvarint(b, uint64(len(l.ByAppState)))
	for _, app := range sortedKeys(l.ByAppState) {
		as := l.ByAppState[app]
		b = appendUvarint(b, uint64(app))
		b = appendUvarint(b, uint64(len(as)))
		for _, s := range sortedKeys(as) {
			b = append(b, byte(s))
			b = appendF64(b, as[s])
		}
	}
	b = appendUvarint(b, uint64(len(l.ByAppDay)))
	for _, app := range sortedKeys(l.ByAppDay) {
		days := l.ByAppDay[app]
		b = appendUvarint(b, uint64(app))
		b = appendUvarint(b, uint64(len(days)))
		for _, day := range sortedKeys(days) {
			ds := days[day]
			b = appendVarint(b, int64(day))
			b = appendF64(b, ds.Energy)
			b = appendF64(b, ds.FgEnergy)
			b = appendF64(b, ds.BgEnergy)
			b = appendVarint(b, ds.FgBytes)
			b = appendVarint(b, ds.BgBytes)
			b = appendVarint(b, int64(ds.Packets))
		}
	}
	b = appendUvarint(b, uint64(len(l.BytesByApp)))
	for _, app := range sortedKeys(l.BytesByApp) {
		b = appendUvarint(b, uint64(app))
		b = appendVarint(b, l.BytesByApp[app])
	}
	return b
}

func decodeLedger(d *dec, l *energy.Ledger) {
	l.Total = d.f64()
	l.IdleEnergy = d.f64()
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		l.ByApp[app] = d.f64()
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		s := trace.ProcState(d.byte())
		l.ByState[s] = d.f64()
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		m := d.mapLen()
		as := make(map[trace.ProcState]float64, m)
		for j := 0; j < m && d.err == nil; j++ {
			s := trace.ProcState(d.byte())
			as[s] = d.f64()
		}
		l.ByAppState[app] = as
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		m := d.mapLen()
		days := make(map[int]*energy.DayStats, m)
		for j := 0; j < m && d.err == nil; j++ {
			day := int(d.varint())
			ds := &energy.DayStats{}
			ds.Energy = d.f64()
			ds.FgEnergy = d.f64()
			ds.BgEnergy = d.f64()
			ds.FgBytes = d.varint()
			ds.BgBytes = d.varint()
			ds.Packets = int(d.varint())
			days[day] = ds
		}
		l.ByAppDay[app] = days
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		l.BytesByApp[app] = d.varint()
	}
}

// ---- StreamResult ----

// AppendBinary appends the serialized form of r to b and returns the
// extended slice. Float64 fields are encoded by bit pattern, so a decode
// reproduces the result exactly.
func (r *StreamResult) AppendBinary(b []byte) []byte {
	b = append(b, streamResultVersion)
	b = appendString(b, r.Device)
	b = appendVarint(b, int64(r.DecodeErrors))
	b = appendLedger(b, r.Ledger)
	b = appendF64(b, r.SinceFg.Width)
	b = appendUvarint(b, uint64(len(r.SinceFg.Vals)))
	for _, v := range r.SinceFg.Vals {
		b = appendF64(b, v)
	}
	b = appendUvarint(b, uint64(len(r.BgBytesByApp)))
	for _, app := range sortedKeys(r.BgBytesByApp) {
		b = appendUvarint(b, uint64(app))
		b = appendVarint(b, r.BgBytesByApp[app])
	}
	b = appendUvarint(b, uint64(len(r.EarlyBytesByApp)))
	for _, app := range sortedKeys(r.EarlyBytesByApp) {
		b = appendUvarint(b, uint64(app))
		b = appendVarint(b, r.EarlyBytesByApp[app])
	}
	b = appendUvarint(b, uint64(len(r.EverForeground)))
	for _, app := range sortedKeys(r.EverForeground) {
		b = appendUvarint(b, uint64(app))
		b = appendBool(b, r.EverForeground[app])
	}
	b = appendVarint(b, r.OffBytes)
	b = appendVarint(b, r.OnBytes)
	b = appendF64(b, r.OffEnergy)
	b = appendF64(b, r.OnEnergy)
	b = appendVarint(b, int64(r.Span[0]))
	b = appendVarint(b, int64(r.Span[1]))
	return b
}

func decodeStreamResult(d *dec) *StreamResult {
	if v := d.byte(); v != streamResultVersion {
		d.fail()
		return nil
	}
	dev := d.str()
	if d.err != nil {
		return nil
	}
	r := NewStreamResult(dev)
	r.DecodeErrors = int(d.varint())
	decodeLedger(d, r.Ledger)
	width := d.f64()
	nbins := d.uvarint()
	if d.err != nil || nbins > marshalMaxBins || width <= 0 {
		d.fail()
		return nil
	}
	r.SinceFg = &stats.TimeBins{Width: width, Vals: make([]float64, nbins)}
	for i := range r.SinceFg.Vals {
		r.SinceFg.Vals[i] = d.f64()
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		r.BgBytesByApp[app] = d.varint()
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		r.EarlyBytesByApp[app] = d.varint()
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		r.EverForeground[app] = d.bool()
	}
	r.OffBytes = d.varint()
	r.OnBytes = d.varint()
	r.OffEnergy = d.f64()
	r.OnEnergy = d.f64()
	r.Span[0] = trace.Timestamp(d.varint())
	r.Span[1] = trace.Timestamp(d.varint())
	if d.err != nil {
		return nil
	}
	return r
}

// DecodeStreamResult decodes a blob produced by AppendBinary. Trailing bytes
// beyond the encoded result are an error.
func DecodeStreamResult(b []byte) (*StreamResult, error) {
	d := &dec{b: b}
	r := decodeStreamResult(d)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, ErrBadSnapshot
	}
	return r, nil
}

// ---- StreamAccumulator ----

// AppendState appends the accumulator's complete mid-stream state to b: the
// partial StreamResult, the per-app foreground bookkeeping, the previous
// packet's attribution target and the radio state machine position. Feeding
// a restored accumulator the remaining records of the stream yields results
// bit-identical to never having stopped.
func (a *StreamAccumulator) AppendState(b []byte) []byte {
	b = append(b, accumulatorVersion)
	b = a.res.AppendBinary(b)
	b = appendUvarint(b, uint64(len(a.lastFgEnd)))
	for _, app := range sortedKeys(a.lastFgEnd) {
		b = appendUvarint(b, uint64(app))
		b = appendVarint(b, int64(a.lastFgEnd[app]))
	}
	b = appendUvarint(b, uint64(len(a.inFg)))
	for _, app := range sortedKeys(a.inFg) {
		b = appendUvarint(b, uint64(app))
		b = appendBool(b, a.inFg[app])
	}
	b = appendBool(b, a.screenOn)
	ks := a.replay.SaveState()
	b = appendUvarint(b, uint64(ks.PrevApp))
	b = append(b, byte(ks.PrevState))
	b = appendVarint(b, int64(ks.PrevDay))
	b = appendBool(b, ks.HavePrev)
	b = appendVarint(b, a.records)
	b = appendBool(b, ks.Radio.Started)
	b = append(b, byte(ks.Radio.State))
	b = appendF64(b, ks.Radio.LastEnd)
	b = appendF64(b, ks.Radio.Total)
	return b
}

// RestoreStreamAccumulator rebuilds an accumulator from a blob produced by
// AppendState. opts must match the options the original accumulator was
// built with (in particular the radio model): the derived components —
// parser, radio accountant parameters — are reconstructed from opts, and
// only the mutable state comes from the blob.
func RestoreStreamAccumulator(b []byte, opts energy.Options) (*StreamAccumulator, error) {
	d := &dec{b: b}
	if v := d.byte(); v != accumulatorVersion {
		d.fail()
	}
	res := decodeStreamResult(d)
	if d.err != nil {
		return nil, d.err
	}
	a := newStreamAccumulator(res, opts)
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		a.lastFgEnd[app] = trace.Timestamp(d.varint())
	}
	for i, n := 0, d.mapLen(); i < n && d.err == nil; i++ {
		app := uint32(d.uvarint())
		a.inFg[app] = d.bool()
	}
	a.screenOn = d.bool()
	var ks energy.ReplayState
	ks.PrevApp = uint32(d.uvarint())
	ks.PrevState = trace.ProcState(d.byte())
	ks.PrevDay = int(d.varint())
	ks.HavePrev = d.bool()
	a.records = d.varint()
	ks.Radio.Started = d.bool()
	ks.Radio.State = radio.State(d.byte())
	ks.Radio.LastEnd = d.f64()
	ks.Radio.Total = d.f64()
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, ErrBadSnapshot
	}
	a.replay.RestoreState(ks)
	return a, nil
}
