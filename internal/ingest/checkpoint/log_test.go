package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

func live(dev string, seq int64) DeviceState {
	return DeviceState{Device: dev, Seq: seq, Acc: []byte("acc-" + dev)}
}

func closed(dev string, seq int64, sessions string) RetiredRecord {
	blob := []byte(sessions)
	return RetiredRecord{Device: dev, Seq: seq, CRC: crc32.ChecksumIEEE(blob), Blob: blob}
}

// state is a snapshot reduced to what a restore sees of each device:
// "live@seq", "closed(blob)@seq", both, or a bare "@seq".
func state(s *Snapshot) map[string]string {
	m := map[string]string{}
	for _, r := range s.Ledger {
		m[r.Device] = fmt.Sprintf("closed(%s)@%d", r.Blob, r.Seq)
	}
	for _, d := range s.Devices {
		st := fmt.Sprintf("@%d", d.Seq)
		if d.Acc != nil {
			st = "live" + st
		}
		if prev := m[d.Device]; prev != "" {
			st = prev + " " + st
		}
		m[d.Device] = st
	}
	return m
}

// threeFrameStore writes a base and three frames and returns the store's
// directory, the base's generation, the log's bytes, the offset each frame
// starts at (plus the log's length), and the state a restore must see after
// the base and after each frame.
func threeFrameStore(t testing.TB) (dir string, base uint64, log []byte, offs []int, want []map[string]string) {
	t.Helper()
	dir = t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	commits := []*Snapshot{
		{Devices: []DeviceState{live("a", 10), live("b", 5), {Device: "bare", Seq: 1}}, Ledger: []RetiredRecord{closed("old", 7, "s1")}},
		{Ledger: []RetiredRecord{closed("a", 12, "s1")}},
		{Devices: []DeviceState{live("a", 15), live("b", 9)}, Ledger: []RetiredRecord{closed("a", 12, "s1")}},
		{Devices: []DeviceState{live("c", 3)}, Ledger: []RetiredRecord{closed("a", 20, "s1+s2"), closed("b", 11, "s1")}},
	}
	want = []map[string]string{
		{"a": "live@10", "b": "live@5", "bare": "@1", "old": "closed(s1)@7"},
		{"a": "closed(s1)@12", "b": "live@5", "bare": "@1", "old": "closed(s1)@7"},
		{"a": "closed(s1)@12 live@15", "b": "live@9", "bare": "@1", "old": "closed(s1)@7"},
		{"a": "closed(s1+s2)@20", "b": "closed(s1)@11", "c": "live@3", "bare": "@1", "old": "closed(s1)@7"},
	}
	if _, base, err = st.Save(commits[0]); err != nil {
		t.Fatal(err)
	}
	for i, c := range commits[1:] {
		offs = append(offs, int(st.logSize))
		gen, err := st.Append(c)
		if err != nil || gen != base+uint64(i+1) {
			t.Fatalf("frame %d: generation %d, %v; want %d", i+1, gen, err, base+uint64(i+1))
		}
	}
	offs = append(offs, int(st.logSize))
	if log, err = os.ReadFile(logPath(dir, base)); err != nil || len(log) != offs[3] {
		t.Fatalf("log: %d bytes, %v; want %d", len(log), err, offs[3])
	}
	return dir, base, log, offs, want
}

// loadWith replaces the log of base with b and loads the directory afresh.
func loadWith(t *testing.T, dir string, base uint64, b []byte) *Loaded {
	t.Helper()
	if err := os.WriteFile(logPath(dir, base), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.LoadLatest(nil)
	if err != nil || ck == nil {
		t.Fatalf("LoadLatest: %v, %v", ck, err)
	}
	if st.Generation() != ck.Gen {
		t.Fatalf("Open counted generation %d, LoadLatest %d", st.Generation(), ck.Gen)
	}
	// The fold re-encodes like any snapshot.
	file, err := EncodeFile(ck.Snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := DecodeFile(file)
	if err != nil || !reflect.DeepEqual(state(again), state(ck.Snap)) {
		t.Fatalf("the folded Snap does not round-trip: %v", err)
	}
	return ck
}

// TestLogTornTail: a log cut at any byte, or with any byte of its last frame
// flipped, restores exactly the state after the last whole frame — never an
// error, never part of a frame, nothing reported as damage — and the
// generation counts the whole frames only.
func TestLogTornTail(t *testing.T) {
	dir, base, log, offs, want := threeFrameStore(t)
	check := func(label string, b []byte, whole int) {
		t.Helper()
		ck := loadWith(t, dir, base, b)
		if ck.Gen != base+uint64(whole) || len(ck.Skipped) != 0 {
			t.Fatalf("%s: generation %d, skipped %v; want %d whole frames and no damage", label, ck.Gen, ck.Skipped, whole)
		}
		if got := state(ck.Snap); !reflect.DeepEqual(got, want[whole]) {
			t.Fatalf("%s: restored %v, want %v", label, got, want[whole])
		}
	}
	for cut := 0; cut <= len(log); cut++ {
		whole := sort.SearchInts(offs, cut+1) - 1 // frames that end at or before cut; offs[0] is 0
		check(fmt.Sprint("cut at ", cut), log[:cut], whole)
	}
	for i := offs[2]; i < len(log); i++ {
		b := bytes.Clone(log)
		b[i] ^= 0x20
		check(fmt.Sprint("flip at ", i), b, 2)
	}
}

// TestLogCorruptMiddle: a damaged frame with a whole one after it is not a
// torn tail. The restore stops before it and says so.
func TestLogCorruptMiddle(t *testing.T) {
	dir, base, log, offs, want := threeFrameStore(t)
	for i := offs[1]; i < offs[2]; i++ {
		b := bytes.Clone(log)
		b[i] ^= 0x20
		ck := loadWith(t, dir, base, b)
		if len(ck.Skipped) != 1 || !errors.Is(ck.Skipped[0], ErrCorrupt) {
			t.Fatalf("flip at %d: skipped %v, want one ErrCorrupt", i, ck.Skipped)
		}
		if got := state(ck.Snap); ck.Gen != base+1 || !reflect.DeepEqual(got, want[1]) {
			t.Fatalf("flip at %d: generation %d %v, want %d %v", i, ck.Gen, got, base+1, want[1])
		}
	}
}

// TestFold: the table of what a frame does to a device.
func TestFold(t *testing.T) {
	base := &Snapshot{
		Devices: []DeviceState{live("stays-live", 4), live("closes", 6), live("only-in-base", 2)},
		Ledger:  []RetiredRecord{closed("reopens", 9, "s1"), closed("stays-closed", 3, "s1")},
		Legacy:  []byte{1},
	}
	frames := []*Snapshot{
		{
			Devices: []DeviceState{live("stays-live", 8), live("reopens", 11), {Device: "bare", Seq: 1}},
			Ledger:  []RetiredRecord{closed("closes", 7, "s1"), closed("reopens", 9, "s1"), closed("twice", 5, "s1+s2")},
		},
		{
			Devices: []DeviceState{{Device: "bare", Seq: 2}, live("closes", 9)},
			Ledger:  []RetiredRecord{closed("reopens", 14, "s1+s2"), closed("closes", 7, "s1")},
		},
	}
	got := fold(base, frames)
	want := map[string]string{
		"stays-live":   "live@8",
		"closes":       "closed(s1)@7 live@9", // live -> closed -> live again
		"only-in-base": "live@2",
		"reopens":      "closed(s1+s2)@14", // closed -> live -> closed again
		"stays-closed": "closed(s1)@3",
		"twice":        "closed(s1+s2)@5", // closed twice between commits: one entry
		"bare":         "@2",
	}
	if !reflect.DeepEqual(state(got), want) {
		t.Errorf("folded %v\nwant   %v", state(got), want)
	}
	if len(got.Devices) != 4 || len(got.Ledger) != 4 {
		t.Errorf("%d device entries, %d ledger entries: some device is named twice", len(got.Devices), len(got.Ledger))
	}
	if !bytes.Equal(got.Legacy, base.Legacy) {
		t.Errorf("legacy %v", got.Legacy)
	}
}

// TestOpenAfterTornTail: a restarted store counts every whole frame, writes a
// base rather than appending after the tail, keeps the old base with its log
// as the fallback, and prunes log and base together.
func TestOpenAfterTornTail(t *testing.T) {
	dir, base, log, offs, want := threeFrameStore(t)
	if err := os.WriteFile(logPath(dir, base), log[:offs[2]+5], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Generation() != base+2 || !st.NeedsBase() {
		t.Fatalf("reopened at generation %d (needs base: %t), want %d and true", st.Generation(), st.NeedsBase(), base+2)
	}
	if _, err := st.Append(&Snapshot{}); err == nil {
		t.Fatal("appended to a base another process wrote")
	}
	_, gen, err := st.Save(&Snapshot{Devices: []DeviceState{live("z", 1)}})
	if err != nil || gen != base+3 {
		t.Fatalf("next base is generation %d (%v), want %d", gen, err, base+3)
	}
	if gen, err = st.Append(&Snapshot{Devices: []DeviceState{live("z", 2)}}); err != nil || gen != base+4 {
		t.Fatalf("next frame is generation %d (%v), want %d", gen, err, base+4)
	}

	// The new base goes bad: the fallback is the old base and its two frames.
	if err := os.WriteFile(genPath(dir, base+3), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := st.LoadLatest(nil)
	if err != nil || ck == nil || ck.Gen != base+2 || len(ck.Skipped) != 1 || !reflect.DeepEqual(state(ck.Snap), want[2]) {
		t.Fatalf("fallback: %+v, %v; want generation %d = %v with the bad base reported", ck, err, base+2, want[2])
	}

	// Two more bases push the first generation out, log and all.
	for i := 0; i < 2; i++ {
		if _, _, err := st.Save(&Snapshot{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{genPath(dir, base), logPath(dir, base), logPath(dir, base+3)} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived pruning (%v)", filepath.Base(p), err)
		}
	}
}

// TestParentBasesOnly: a directory as the build before the log left it — bases,
// no logs — loads as it always did: the newest base, byte for byte, nothing
// skipped. The store does not append to a base it did not write.
func TestParentBasesOnly(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "parent-v2.ck"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, g := range []uint64{6, 7} {
		if err := os.WriteFile(genPath(dir, g), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeFile(b)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := st.LoadLatest(nil)
	if err != nil || ck == nil || ck.Gen != 7 || !reflect.DeepEqual(ck.Snap, want) || len(ck.Skipped) != 0 {
		t.Fatalf("loaded %+v, %v", ck, err)
	}
	if st.Generation() != 7 || !st.NeedsBase() {
		t.Errorf("generation %d, needs base %t", st.Generation(), st.NeedsBase())
	}
}

// TestCompactionRule: the log may grow to the size of its base, and to
// minLogBytes under a small one, before the store asks for a new base; a
// failed commit asks for one at once.
func TestCompactionRule(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.NeedsBase() {
		t.Fatal("an empty store has nothing to append to")
	}
	frame := &Snapshot{Devices: []DeviceState{{Device: "d", Seq: 1, Acc: make([]byte, 300<<10)}}}
	for _, baseBytes := range []int{0, 3 << 20} {
		if _, _, err := st.Save(&Snapshot{Devices: []DeviceState{{Device: "d", Seq: 1, Acc: make([]byte, baseBytes)}}}); err != nil {
			t.Fatal(err)
		}
		frames := 0
		for !st.NeedsBase() {
			if _, err := st.Append(frame); err != nil {
				t.Fatal(err)
			}
			frames++
		}
		limit := max(int64(baseBytes), minLogBytes)
		if st.logSize <= limit || st.logSize-int64(300<<10)-64 > limit {
			t.Errorf("base of %d bytes: asked for a new base at %d log bytes (%d frames), limit %d", baseBytes, st.logSize, frames, limit)
		}
	}

	if _, _, err := st.Save(&Snapshot{}); err != nil {
		t.Fatal(err)
	}
	before := st.Written()
	if err := os.Mkdir(logPath(dir, st.Generation()), 0o755); err != nil { // the log cannot be opened
		t.Fatal(err)
	}
	if _, err := st.Append(frame); err == nil {
		t.Fatal("appended to a directory")
	}
	if !st.NeedsBase() || st.Written() != before {
		t.Errorf("after a failed append: needs base %t, %d bytes counted", st.NeedsBase(), st.Written()-before)
	}
	if err := os.MkdirAll(filepath.Join(genPath(dir, st.Generation()+1), "x"), 0o755); err != nil { // nor the base renamed into place
		t.Fatal(err)
	}
	if _, _, err := st.Save(&Snapshot{}); err == nil {
		t.Fatal("renamed a base over a directory")
	}
	if !st.NeedsBase() {
		t.Error("after a failed save the old log would take frames again")
	}
}

// TestValidatorCutsLog: a whole frame the caller's validator rejects ends the
// log there, with the damage reported, and the last snapshot the validator
// sees is the one LoadLatest returns — a caller that keeps what it decoded
// keeps the right thing.
func TestValidatorCutsLog(t *testing.T) {
	dir, base, _, _, want := threeFrameStore(t)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var saw *Snapshot
	ck, err := st.LoadLatest(func(s *Snapshot) error {
		saw = s
		for _, d := range s.Devices {
			if d.Device == "c" { // only the third frame names it
				return errors.New("c does not decode")
			}
		}
		return nil
	})
	if err != nil || ck == nil || ck.Gen != base+2 || len(ck.Skipped) != 1 || !reflect.DeepEqual(state(ck.Snap), want[2]) {
		t.Fatalf("loaded %+v, %v; want generation %d with the third frame reported", ck, err, base+2)
	}
	if saw != ck.Snap {
		t.Error("the validator last saw something other than what was returned")
	}
}
