// Package checkpoint implements the ingest daemon's crash-safe durability
// layer: periodic snapshots of every shard's analysis state and per-device
// record sequence numbers, written as atomically-renamed, CRC-protected
// generation files.
//
// The failure model is fail-stop (SIGKILL, OOM, power loss) at any byte
// boundary. The guarantees:
//
//   - A checkpoint file is either fully valid or detectably invalid: the
//     payload is covered by a CRC32 and an explicit length, so torn writes
//     and bit rot are caught at load time, never half-applied.
//   - Writes are atomic at the filesystem level: payloads go to a temp file
//     in the same directory, are fsynced, and are renamed into place.
//   - The two most recent generations are retained. A corrupt or torn
//     newest generation falls back to the previous one, so a crash *during*
//     a checkpoint write costs at most one checkpoint interval of progress.
//   - There is one format. A file in a format this build does not restore —
//     payload v1, or a v2 file holding closed sessions in the unattributed
//     aggregate that preceded the per-device ledger — is ErrUnsupported,
//     which is never fallen back from: LoadLatest fails naming the file,
//     because an older generation, or an empty start, would silently drop
//     what the refused one holds.
//   - Generation numbers are monotonic across restarts (the store scans the
//     directory on open), so a recovered daemon never overwrites history it
//     might still need.
//
// The store is deliberately ignorant of what the payload means: device
// entries carry opaque accumulator-state blobs (internal/analysis encodes
// and validates them), so this package has no dependency on the analysis
// types and the container format can be fuzzed in isolation.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Container format:
//
//	file    := magic crc32le payloadLen:uvarint payload
//	payload := version:byte(2) nDevices:uvarint device* legacy
//	           nLedger:uvarint ledger* fence
//	device  := devLen:uvarint dev:bytes seq:uvarint hasAcc:byte [blob]
//	legacy  := 0x00 | 0x01 blob
//	ledger  := devLen:uvarint dev:bytes seq:uvarint crc32le:4 blob
//	fence   := epoch:uvarint incLen:uvarint inc:bytes
//	blob    := len:uvarint bytes
//
// legacy is where builds before the ledger kept every closed session as one
// unattributed aggregate. Encode always writes 0x00; Decode hands a blob it
// finds there to the caller as Snapshot.Legacy, who must refuse the file
// (ErrUnsupported) unless the blob is the aggregate of nothing, which is
// what the builds between the ledger's arrival and this one wrote.
var fileMagic = []byte("NECKPT1\n")

const (
	payloadVersion = 2
	// maxIncarnation caps the fence incarnation-string length.
	maxIncarnation = 256
	// MaxPayload caps a checkpoint payload (1 GiB); a length field beyond it
	// means the header cannot be trusted.
	MaxPayload = 1 << 30
	// maxDevices caps the device-entry count a decoder will allocate for.
	maxDevices = 1 << 22
	// maxDeviceID matches the ingest wire protocol's device-ID cap.
	maxDeviceID = 4096
	// keepGenerations is how many recent checkpoint files are retained.
	keepGenerations = 2
)

// Decode/load errors.
var (
	// ErrCorrupt means a checkpoint file failed its CRC or structural
	// validation — fall back to an older generation.
	ErrCorrupt = errors.New("checkpoint: corrupt file")
	// ErrTorn means the file ended before the declared payload length — a
	// write was interrupted mid-stream.
	ErrTorn = errors.New("checkpoint: torn write")
	// ErrUnsupported means the file is intact but in a format this build
	// refuses to restore. Unlike the two above it is not a reason to fall
	// back: whatever the file holds would be lost without anyone noticing.
	ErrUnsupported = errors.New("checkpoint: unsupported format")
)

// DeviceState is one device's durable state: how many records the server
// has incorporated (the resume/dedup sequence number) and, for devices with
// an in-flight stream, the serialized analysis accumulator. Acc is nil for
// devices with no session open (their closed sessions are in the ledger).
type DeviceState struct {
	Device string
	Seq    int64
	Acc    []byte
}

// RetiredRecord is one device's retirement entry: the final sequence number
// its stream closed at and the device's own finalized, serialized
// StreamResult. Carrying the per-device blob (rather than folding it into a
// blind aggregate) is what lets a handoff receiver dedup a retired device
// positionally, exactly like a live entry: if the receiver has already seen
// seq >= Seq for the device, the entry is stale and is NOT merged. CRC is
// crc32.ChecksumIEEE(Blob), verified at decode time.
type RetiredRecord struct {
	Device string
	Seq    int64
	CRC    uint32
	Blob   []byte
}

// Fence identifies which process lifetime, under which cluster epoch, wrote
// a checkpoint. The aggregator records it in a tombstone when it ships the
// file to survivors; a rejoining node compares its restored fence against
// the tombstone to detect "my state was already handed off" and archive
// instead of double-serving.
type Fence struct {
	Epoch       uint64
	Incarnation string
}

// Snapshot is one checkpoint's logical content.
type Snapshot struct {
	Devices []DeviceState
	// Ledger holds one RetiredRecord per device with closed sessions.
	Ledger []RetiredRecord
	// Fence stamps the writing process and cluster epoch (epoch 0 on
	// standalone nodes).
	Fence Fence
	// Legacy is the file's unattributed retired aggregate, set by Decode
	// when an older build wrote one and ignored by Encode (see the format
	// comment for what the reader owes it).
	Legacy []byte
}

// Encode serializes a snapshot payload (without the file header). Ledger
// entries are sorted by device in place so identical logical snapshots
// produce identical bytes.
func Encode(s *Snapshot) []byte {
	n := 64 + len(s.Fence.Incarnation)
	for i := range s.Devices {
		n += len(s.Devices[i].Device) + len(s.Devices[i].Acc) + 16
	}
	for i := range s.Ledger {
		n += len(s.Ledger[i].Device) + len(s.Ledger[i].Blob) + 24
	}
	sort.Slice(s.Ledger, func(i, j int) bool { return s.Ledger[i].Device < s.Ledger[j].Device })
	b := make([]byte, 0, n)
	b = append(b, payloadVersion)
	b = binary.AppendUvarint(b, uint64(len(s.Devices)))
	for i := range s.Devices {
		d := &s.Devices[i]
		b = binary.AppendUvarint(b, uint64(len(d.Device)))
		b = append(b, d.Device...)
		b = binary.AppendUvarint(b, uint64(d.Seq))
		if d.Acc == nil {
			b = append(b, 0)
		} else {
			b = append(b, 1)
			b = binary.AppendUvarint(b, uint64(len(d.Acc)))
			b = append(b, d.Acc...)
		}
	}
	b = append(b, 0) // legacy: never written
	b = binary.AppendUvarint(b, uint64(len(s.Ledger)))
	for i := range s.Ledger {
		r := &s.Ledger[i]
		b = binary.AppendUvarint(b, uint64(len(r.Device)))
		b = append(b, r.Device...)
		b = binary.AppendUvarint(b, uint64(r.Seq))
		b = binary.LittleEndian.AppendUint32(b, r.CRC)
		b = binary.AppendUvarint(b, uint64(len(r.Blob)))
		b = append(b, r.Blob...)
	}
	b = binary.AppendUvarint(b, s.Fence.Epoch)
	b = binary.AppendUvarint(b, uint64(len(s.Fence.Incarnation)))
	b = append(b, s.Fence.Incarnation...)
	return b
}

// Decode parses a snapshot payload. It validates structure and bounds; the
// opaque blobs are returned as-is for the caller to validate.
func Decode(b []byte) (*Snapshot, error) {
	cur := b
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(cur)
		if n <= 0 {
			return 0, false
		}
		cur = cur[n:]
		return v, true
	}
	take := func(n uint64) ([]byte, bool) {
		if uint64(len(cur)) < n {
			return nil, false
		}
		out := cur[:n]
		cur = cur[n:]
		return out, true
	}

	// blob reads `len bytes`.
	blob := func() ([]byte, bool) {
		n, ok := uvarint()
		if !ok || n > MaxPayload {
			return nil, false
		}
		return take(n)
	}
	// entry reads the `devLen dev seq` prefix of a device or ledger entry.
	entry := func() (dev string, seq int64, ok bool) {
		n, ok := uvarint()
		if !ok || n == 0 || n > maxDeviceID {
			return "", 0, false
		}
		d, ok := take(n)
		if !ok {
			return "", 0, false
		}
		q, ok := uvarint()
		return string(d), int64(q), ok
	}
	// flag reads a 0/1 presence byte.
	flag := func() (set, ok bool) {
		f, ok := take(1)
		return ok && f[0] == 1, ok && f[0] <= 1
	}

	if len(cur) < 1 {
		return nil, ErrCorrupt
	}
	if cur[0] == 1 {
		return nil, fmt.Errorf("%w: payload v1, which predates the per-device retirement ledger", ErrUnsupported)
	}
	if cur[0] != payloadVersion {
		return nil, ErrCorrupt
	}
	cur = cur[1:]
	nDev, ok := uvarint()
	if !ok || nDev > maxDevices {
		return nil, ErrCorrupt
	}
	s := &Snapshot{}
	for i := uint64(0); i < nDev; i++ {
		dev, seq, ok := entry()
		if !ok {
			return nil, ErrCorrupt
		}
		d := DeviceState{Device: dev, Seq: seq}
		hasAcc, ok := flag()
		if !ok {
			return nil, ErrCorrupt
		}
		if hasAcc {
			if d.Acc, ok = blob(); !ok {
				return nil, ErrCorrupt
			}
		}
		s.Devices = append(s.Devices, d)
	}
	hasLegacy, ok := flag()
	if !ok {
		return nil, ErrCorrupt
	}
	if hasLegacy {
		if s.Legacy, ok = blob(); !ok {
			return nil, ErrCorrupt
		}
	}
	nLedger, ok := uvarint()
	if !ok || nLedger > maxDevices {
		return nil, ErrCorrupt
	}
	for i := uint64(0); i < nLedger; i++ {
		dev, seq, ok := entry()
		if !ok {
			return nil, ErrCorrupt
		}
		crcb, ok := take(4)
		if !ok {
			return nil, ErrCorrupt
		}
		r := RetiredRecord{Device: dev, Seq: seq, CRC: binary.LittleEndian.Uint32(crcb)}
		if r.Blob, ok = blob(); !ok || crc32.ChecksumIEEE(r.Blob) != r.CRC {
			return nil, ErrCorrupt
		}
		s.Ledger = append(s.Ledger, r)
	}
	epoch, ok := uvarint()
	if !ok {
		return nil, ErrCorrupt
	}
	ilen, ok := uvarint()
	if !ok || ilen > maxIncarnation {
		return nil, ErrCorrupt
	}
	inc, ok := take(ilen)
	if !ok || len(cur) != 0 {
		return nil, ErrCorrupt
	}
	s.Fence = Fence{Epoch: epoch, Incarnation: string(inc)}
	return s, nil
}

// Store writes and loads generation files in one directory.
type Store struct {
	dir string
	gen uint64 // highest generation seen or written
}

// Open prepares a checkpoint store in dir, creating it if needed, and scans
// existing generation files so new writes continue the sequence.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	for _, g := range s.generations() {
		if g > s.gen {
			s.gen = g
		}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Generation returns the highest generation seen or written so far.
func (s *Store) Generation() uint64 { return s.gen }

func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ck-%08d.ck", gen))
}

// generations lists existing generation numbers, ascending.
func (s *Store) generations() []uint64 {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var gens []uint64
	for _, e := range ents {
		var g uint64
		if n, err := fmt.Sscanf(e.Name(), "ck-%d.ck", &g); n == 1 && err == nil &&
			e.Name() == fmt.Sprintf("ck-%08d.ck", g) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
}

// EncodeFile serializes a snapshot as complete checkpoint-file bytes
// (header + CRC + payload) — exactly what Save writes to disk. The cluster
// tier ships such bytes (LoadLatest's File) over the wire during ownership
// handoff; the receiver verifies them with DecodeFile, so a transfer enjoys
// the same torn/corrupt detection as a crash recovery.
func EncodeFile(snap *Snapshot) ([]byte, error) {
	payload := Encode(snap)
	if len(payload) > MaxPayload {
		return nil, fmt.Errorf("checkpoint: payload too large: %d", len(payload))
	}
	b := append([]byte(nil), fileMagic...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...), nil
}

// Save atomically writes snap as the next generation and prunes old files.
// It returns the path and generation written. The sequence is: temp file in
// the same directory, write header+payload, fsync, rename, fsync directory
// — a crash at any point leaves either the previous generation set intact
// or the new file fully in place.
func (s *Store) Save(snap *Snapshot) (path string, gen uint64, err error) {
	file, err := EncodeFile(snap)
	if err != nil {
		return "", 0, err
	}

	gen = s.gen + 1
	path = genPath(s.dir, gen)
	tmp, err := os.CreateTemp(s.dir, "ck-*.tmp")
	if err != nil {
		return "", 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(file); err != nil {
		tmp.Close()
		return "", 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", 0, err
	}
	if err := tmp.Close(); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", 0, err
	}
	syncDir(s.dir)
	s.gen = gen

	// Prune: keep the newest keepGenerations files.
	gens := s.generations()
	for i := 0; i+keepGenerations < len(gens); i++ {
		os.Remove(genPath(s.dir, gens[i])) //nolint:errcheck // best effort
	}
	return path, gen, nil
}

func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck // advisory; rename already atomic
		d.Close()
	}
}

// DecodeFile parses and validates complete checkpoint-file bytes: magic,
// CRC, declared payload length, then the payload structure. It is the
// receive-side verification for checkpoint handoff over the wire.
func DecodeFile(b []byte) (*Snapshot, error) {
	if len(b) < len(fileMagic)+4 {
		return nil, ErrTorn
	}
	for i := range fileMagic {
		if b[i] != fileMagic[i] {
			return nil, ErrCorrupt
		}
	}
	b = b[len(fileMagic):]
	wantCRC := binary.LittleEndian.Uint32(b)
	b = b[4:]
	plen, n := binary.Uvarint(b)
	if n <= 0 || plen > MaxPayload {
		return nil, ErrCorrupt
	}
	b = b[n:]
	if uint64(len(b)) < plen {
		return nil, ErrTorn
	}
	if uint64(len(b)) > plen {
		return nil, ErrCorrupt
	}
	payload := b[:plen]
	if crc32.ChecksumIEEE(payload) != wantCRC {
		return nil, ErrCorrupt
	}
	return Decode(payload)
}

// TombstoneName is the marker file the aggregator (or a draining node)
// writes into a checkpoint directory after the newest generation has been
// shipped to survivors. A restarting node that finds a tombstone covering
// its newest generation knows its state already lives elsewhere and must
// archive, not restore.
const TombstoneName = "handoff.tomb"

// Tombstone records a handoff of a checkpoint directory: some survivor holds
// part of its state.
type Tombstone struct {
	// Node is the member ID whose state was shipped.
	Node string `json:"node"`
	// Incarnation is the fence incarnation of the shipped checkpoint file.
	Incarnation string `json:"incarnation"`
	// Generation is the checkpoint generation that was shipped. Any
	// generation <= this is covered by the handoff; a strictly newer
	// generation means the node kept writing after the ship and its tail
	// was never transferred.
	Generation uint64 `json:"generation"`
	// Epoch is the cluster epoch at ship time.
	Epoch uint64 `json:"epoch"`
	// UnixNano is the wall-clock ship time (diagnostic only).
	UnixNano int64 `json:"unix_nano"`
}

// WriteTombstone atomically writes (or replaces) the directory's handoff
// tombstone with the same temp+fsync+rename discipline as Save.
func WriteTombstone(dir string, t Tombstone) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "tomb-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, TombstoneName)); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// LoadTombstone reads the directory's handoff tombstone. A missing file (or
// missing directory) is (nil, nil); an unreadable or malformed file is an
// error — the caller must decide, not silently restore over it.
func LoadTombstone(dir string) (*Tombstone, error) {
	b, err := os.ReadFile(filepath.Join(dir, TombstoneName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var t Tombstone
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%w: tombstone: %v", ErrCorrupt, err)
	}
	return &t, nil
}

// ArchiveShipped moves every generation file plus the tombstone into a
// `shipped-<generation>` subdirectory, leaving the store empty for a clean
// restart. The generation counter keeps counting from where it was, so
// post-archive checkpoints are strictly newer than anything a stale
// tombstone could cover. Returns the archive directory.
func (s *Store) ArchiveShipped(t *Tombstone) (string, error) {
	sub := filepath.Join(s.dir, fmt.Sprintf("shipped-%08d", t.Generation))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	for _, g := range s.generations() {
		p := genPath(s.dir, g)
		if err := os.Rename(p, filepath.Join(sub, filepath.Base(p))); err != nil {
			return "", err
		}
	}
	tomb := filepath.Join(s.dir, TombstoneName)
	if _, err := os.Stat(tomb); err == nil {
		if err := os.Rename(tomb, filepath.Join(sub, TombstoneName)); err != nil {
			return "", err
		}
	}
	syncDir(s.dir)
	return sub, nil
}

// Loaded is one generation as LoadLatest found it: its number, the exact
// bytes on disk — what a handoff ships, so the receiver checks the CRC the
// dead node wrote — and their decoded content (which aliases File).
type Loaded struct {
	Gen  uint64
	File []byte
	Snap *Snapshot
}

// LoadLatest returns the newest generation that passes both the container
// checks and the caller's validate function (nil to skip). Unreadable, torn
// or corrupt generations, and ones validate rejects, are skipped — this is
// the fall-back-on-corruption path. A generation that is ErrUnsupported, by
// the decoder's judgement or validate's, is not: it ends the search with an
// error naming the file (see the package comment). It returns (nil, nil)
// when no valid checkpoint exists.
func (s *Store) LoadLatest(validate func(*Snapshot) error) (*Loaded, error) {
	gens := s.generations()
	for i := len(gens) - 1; i >= 0; i-- {
		path := genPath(s.dir, gens[i])
		file, snap, err := loadFile(path, validate)
		if errors.Is(err, ErrUnsupported) {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err != nil {
			continue
		}
		return &Loaded{Gen: gens[i], File: file, Snap: snap}, nil
	}
	return nil, nil
}

// loadFile reads one generation, checks container and payload, and asks the
// caller's validator (nil to skip) about what they hold.
func loadFile(path string, validate func(*Snapshot) error) ([]byte, *Snapshot, error) {
	file, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	snap, err := DecodeFile(file)
	if err != nil || validate == nil {
		return file, snap, err
	}
	return file, snap, validate(snap)
}
