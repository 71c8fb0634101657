// Package checkpoint implements the ingest daemon's crash-safe durability
// layer: every shard's analysis state and per-device record sequence numbers,
// kept as CRC-protected generations in one directory.
//
// A generation is one commit. On disk it is a base — ck-<g>.ck, a full
// snapshot, written to a temp file, fsynced and renamed into place — followed
// by the whole frames of its delta log, ck-<g>.log: base g with k whole frames
// after it is generation g+k. A frame is a checkpoint-file image, the very
// bytes a base file holds (magic crc32 len payload), carrying only the devices
// that changed since the commit before it; there is one serializer (Encode)
// and one parser (DecodeFile's) for both. A device a frame names takes its
// whole state from that frame — live entry, ledger entry or both; a ledger
// entry without a live one means the session closed — so restoring is a fold
// per device, base first, frames in order, and what comes out is an ordinary
// Snapshot that installs, ships and re-encodes like any other.
//
// The failure model is fail-stop (SIGKILL, OOM, power loss) at any byte
// boundary. The guarantees:
//
//   - A base or a frame is either fully valid or detectably invalid: the
//     payload is covered by a CRC32 and an explicit length, so torn writes
//     and bit rot are caught at load time, never half-applied.
//   - A commit is durable when Save or Append returns: a base is renamed into
//     place after its fsync, a frame is appended and fsynced (and the
//     directory with it when the log was just created).
//   - Only the last frame of a log may be missing, and only silently when it
//     is torn: a crash cut its write short, so nobody was told it committed.
//     An invalid frame with a valid one after it is corruption, and so is an
//     intact frame the caller's validator rejects; LoadLatest restores up to
//     the frame before it and says so in Loaded.Skipped.
//   - A process appends only to a base it wrote itself, so nothing is ever
//     appended after a torn tail. Which commits are bases is the caller's
//     rule, built on NeedsBase: no base written yet, a failed Save or Append
//     (whoever collected that commit's changes cannot collect them again), or
//     a log grown past its base (at least minLogBytes) — which keeps rewriting
//     amortised O(1) per commit and the directory near two bases' worth.
//   - The two most recent bases are retained, each with its log. A corrupt or
//     torn newest base falls back to the previous base and every frame after
//     it — the state just before the bad base was written — and Loaded.Skipped
//     names what was passed over. When no base restores, LoadLatest fails
//     naming each: only a directory with no base in it loads as empty.
//   - There is one format. A file in a format this build does not restore —
//     payload v1, or a v2 file holding closed sessions in the unattributed
//     aggregate that preceded the per-device ledger — is ErrUnsupported,
//     which is never fallen back from: LoadLatest fails naming the file,
//     because an older generation, or an empty start, would silently drop
//     what the refused one holds. A build that predates the log restores the
//     newest base and ignores every frame: downgrading across this format is
//     not supported.
//   - Generation numbers are monotonic across restarts (Open scans the
//     directory and counts the newest log's whole frames), so a recovered
//     daemon never overwrites history it might still need.
//
// The store is deliberately ignorant of what the payload means: device
// entries carry opaque accumulator-state blobs (internal/analysis encodes
// and validates them), so this package has no dependency on the analysis
// types and the container format can be fuzzed in isolation.
package checkpoint

import (
	"bytes"
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
	// keepGenerations is how many recent bases are retained, each with its
	// delta log.
	keepGenerations = 2
	// minLogBytes is the least a delta log grows to before it alone asks for
	// a new base: under it a rewrite saves too little to be worth an fsynced
	// rename.
	minLogBytes = 1 << 20
)

// Decode/load errors.
var (
	// ErrCorrupt means a base or a frame failed its CRC or structural
	// validation — restore what precedes it, and say so.
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

// Store writes and loads generations in one directory.
type Store struct {
	dir string
	gen uint64 // highest generation seen or written

	// base is the generation of the base this process wrote and may still
	// append frames to; 0 when the next commit has to be a base. log is that
	// base's delta log, opened by the first Append.
	base              uint64
	log               *os.File
	baseSize, logSize int64
	written           int64
}

// Open prepares a checkpoint store in dir, creating it if needed, and scans
// what is there — the bases, and the whole frames of the newest one's log —
// so new writes continue the generation sequence.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir}
	if gens := s.generations(); len(gens) > 0 {
		newest := gens[len(gens)-1]
		frames, _ := loadLog(logPath(dir, newest)) // LoadLatest reports what is wrong with it
		s.gen = newest + uint64(len(frames))
	}
	return s, nil
}

// Generation returns the highest generation seen or written so far.
func (s *Store) Generation() uint64 { return s.gen }

// Written returns how many bytes of bases and frames this Store has made
// durable.
func (s *Store) Written() int64 { return s.written }

// NeedsBase reports whether the next commit must be a Save: this Store has no
// base of its own to append to — none written yet, a Save or Append failed, or
// the directory was archived — or the log has outgrown its base.
func (s *Store) NeedsBase() bool {
	return s.base == 0 || s.logSize > max(s.baseSize, minLogBytes)
}

func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ck-%08d.ck", gen))
}

// logPath names the delta log of base gen.
func logPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ck-%08d.log", gen))
}

// generations lists the generation numbers of the bases present, ascending.
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

// encodeImage serializes a snapshot as a checkpoint-file image in its two
// parts, header (magic, CRC, length) and payload, so a writer can stream them
// without joining them first.
func encodeImage(snap *Snapshot) (hdr, payload []byte, err error) {
	payload = Encode(snap)
	if len(payload) > MaxPayload {
		return nil, nil, fmt.Errorf("checkpoint: payload too large: %d", len(payload))
	}
	hdr = make([]byte, 0, len(fileMagic)+4+binary.MaxVarintLen64)
	hdr = append(hdr, fileMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	return hdr, payload, nil
}

// EncodeFile serializes a snapshot as a complete checkpoint-file image
// (header + CRC + payload) — what Save writes as a base, what Append writes as
// a frame, and what the cluster tier ships (LoadLatest's File) during
// ownership handoff; the receiver verifies it with DecodeFile, so a transfer
// enjoys the same torn/corrupt detection as a crash recovery.
func EncodeFile(snap *Snapshot) ([]byte, error) {
	hdr, payload, err := encodeImage(snap)
	if err != nil {
		return nil, err
	}
	return append(hdr, payload...), nil
}

// writeAtomic makes dir/name hold exactly parts, or leaves whatever was there:
// temp file in the same directory, the writes, fsync, close, rename, fsync of
// the directory. A crash at any point leaves the old file or the new one. It
// is the one place this package replaces a file.
func writeAtomic(dir, name string, parts ...[]byte) (n int64, err error) {
	tmp, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	for _, p := range parts {
		k, err := tmp.Write(p)
		n += int64(k)
		if err != nil {
			tmp.Close()
			return n, err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Close(); err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return n, err
	}
	syncDir(dir)
	return n, nil
}

// Save atomically writes snap as the next generation's base and prunes old
// ones, logs included. It returns the path and generation written. Whether or
// not it succeeds, the log of the base before takes no more frames.
func (s *Store) Save(snap *Snapshot) (path string, gen uint64, err error) {
	s.dropBase()
	hdr, payload, err := encodeImage(snap)
	if err != nil {
		return "", 0, err
	}
	gen = s.gen + 1
	path = genPath(s.dir, gen)
	n, err := writeAtomic(s.dir, filepath.Base(path), hdr, payload)
	if err != nil {
		return "", 0, err
	}
	s.gen, s.base, s.baseSize, s.logSize = gen, gen, n, 0
	s.written += n

	// Prune: keep the newest keepGenerations bases and their logs. A log
	// goes before its base, so no log is ever left without one.
	gens := s.generations()
	for i := 0; i+keepGenerations < len(gens); i++ {
		os.Remove(logPath(s.dir, gens[i])) //nolint:errcheck // best effort
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

// DecodeFile parses and validates a complete checkpoint-file image: magic,
// CRC, declared payload length, then the payload structure. It is the
// receive-side verification for checkpoint handoff over the wire.
func DecodeFile(b []byte) (*Snapshot, error) {
	snap, n, err := decodeImage(b)
	if err == nil && n != len(b) {
		return nil, ErrCorrupt
	}
	return snap, err
}

// decodeImage parses the checkpoint-file image at the head of b and reports
// how many bytes it occupies. It is the only parser of the container: a base
// is one image and nothing else, a delta log is images end to end.
func decodeImage(b []byte) (snap *Snapshot, n int, err error) {
	if len(b) < len(fileMagic)+4 {
		return nil, 0, ErrTorn
	}
	if !bytes.Equal(b[:len(fileMagic)], fileMagic) {
		return nil, 0, ErrCorrupt
	}
	p := b[len(fileMagic):]
	wantCRC := binary.LittleEndian.Uint32(p)
	p = p[4:]
	plen, k := binary.Uvarint(p)
	if k <= 0 || plen > MaxPayload {
		return nil, 0, ErrCorrupt
	}
	p = p[k:]
	if uint64(len(p)) < plen {
		return nil, 0, ErrTorn
	}
	if crc32.ChecksumIEEE(p[:plen]) != wantCRC {
		return nil, 0, ErrCorrupt
	}
	snap, err = Decode(p[:plen])
	return snap, len(b) - len(p) + int(plen), err
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
// tombstone, the way Save writes a base.
func WriteTombstone(dir string, t Tombstone) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	_, err = writeAtomic(dir, TombstoneName, b, []byte{'\n'})
	return err
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

// ArchiveShipped moves every base, every log and the tombstone into a
// `shipped-<generation>` subdirectory, leaving the store empty for a clean
// restart: the next commit is a base. The generation counter keeps counting
// from where it was, so post-archive checkpoints are strictly newer than
// anything a stale tombstone could cover. Returns the archive directory.
func (s *Store) ArchiveShipped(t *Tombstone) (string, error) {
	s.dropBase()
	sub := filepath.Join(s.dir, fmt.Sprintf("shipped-%08d", t.Generation))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	move := func(p string) error {
		err := os.Rename(p, filepath.Join(sub, filepath.Base(p)))
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, g := range s.generations() {
		// The log first, as in Save's pruning.
		if err := errors.Join(move(logPath(s.dir, g)), move(genPath(s.dir, g))); err != nil {
			return "", err
		}
	}
	if err := move(filepath.Join(s.dir, TombstoneName)); err != nil {
		return "", err
	}
	syncDir(s.dir)
	return sub, nil
}

// Loaded is one generation as LoadLatest found it.
type Loaded struct {
	// Gen is the base's generation plus the whole frames after it.
	Gen uint64
	// File is Snap as one checkpoint-file image — what a handoff ships. For a
	// base with no frames after it these are the bytes on disk (Snap aliases
	// them), so the receiver checks the CRC the dead node wrote.
	File []byte
	// Snap is the base with every whole frame folded over it.
	Snap *Snapshot
	// Skipped says what newer state LoadLatest could not restore: bases
	// passed over as unreadable, torn, corrupt or refused by validate, and a
	// log cut short at a frame that is corrupt, or refused by validate, with
	// the frames after it. A torn last frame is not in it: that commit was
	// never acknowledged.
	Skipped []error
}

// LoadLatest returns the newest generation that passes both the container
// checks and the caller's validate function (nil to skip). A base that is
// unreadable, torn, corrupt or rejected by validate is passed over for the
// one before it and recorded in Skipped — this is the fall-back-on-corruption
// path. A generation that is ErrUnsupported, by the decoder's judgement or
// validate's, is not: it ends the search with an error naming the file (see
// the package comment). A directory with no base in it — fresh, or archived
// behind a tombstone — returns (nil, nil). One with bases of which none
// restores is an error carrying every file's reason: starting empty beside
// them would lose everything they hold without a word, and the next commit
// would prune them.
func (s *Store) LoadLatest(validate func(*Snapshot) error) (*Loaded, error) {
	gens := s.generations()
	var skipped []error
	for i := len(gens) - 1; i >= 0; i-- {
		ld, err := s.load(gens[i], validate)
		if errors.Is(err, ErrUnsupported) {
			return nil, err
		}
		if err != nil {
			skipped = append(skipped, err)
			continue
		}
		ld.Skipped = append(skipped, ld.Skipped...)
		return ld, nil
	}
	if len(skipped) > 0 {
		return nil, fmt.Errorf("%s: none of %d checkpoint generation(s) restores; move the directory aside to start empty: %w",
			s.dir, len(skipped), errors.Join(skipped...))
	}
	return nil, nil
}

// load reads base gen and its log, folds the whole frames over the base and
// returns the result. The caller's validator (nil to skip) judges each frame
// before it is folded in — one it rejects ends the log there, like a corrupt
// one — and last of all the result, which is therefore the last thing it saw.
// Errors name the file at fault.
func (s *Store) load(gen uint64, validate func(*Snapshot) error) (*Loaded, error) {
	if validate == nil {
		validate = func(*Snapshot) error { return nil }
	}
	path, lp := genPath(s.dir, gen), logPath(s.dir, gen)
	file, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeFile(file)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	ld := &Loaded{Gen: gen, File: file, Snap: snap}

	frames, err := loadLog(lp)
	for i := range frames {
		if verr := validate(frames[i]); verr != nil {
			err = fmt.Errorf("frame %d: %w", i, verr) // and whatever is wrong further on no longer matters
			frames = frames[:i]
			break
		}
	}
	if errors.Is(err, ErrUnsupported) {
		return nil, fmt.Errorf("%s: %w", lp, err)
	}
	if err != nil {
		// The base, and the frames before the damage, are still newer than
		// anything an older generation holds.
		ld.Skipped = append(ld.Skipped, fmt.Errorf("%s: %w", lp, err))
	}
	if len(frames) > 0 {
		ld.Gen += uint64(len(frames))
		ld.Snap = fold(snap, frames)
		if ld.File, err = EncodeFile(ld.Snap); err != nil {
			return nil, fmt.Errorf("%s: %w", lp, err)
		}
	}
	if err := validate(ld.Snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ld, nil
}
