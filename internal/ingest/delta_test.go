package ingest

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"netenergy/internal/analysis"
	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/obs"
	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
)

// A commit is a base or a delta frame (checkpoint package comment). These
// tests pin what the server builds on that: whichever mix of the two a run
// happens to write, a restart sees every acknowledged FIN and counts every
// record once; a commit that fails costs a base, never state; and what a
// durable FIN writes does not grow with the node.

// deliver brings s up to dt.Records[:to] for the device over one connection,
// starting wherever the server says it is — after a kill that is behind where
// the last connection left off, which makes this the retransmission too — and
// ends with a FIN or, once the server has applied everything, an abort.
func deliver(t *testing.T, s *Server, dt *trace.DeviceTrace, to int, fin bool) {
	t.Helper()
	c, err := Dial(s.Addr().String(), dt.Device, dt.Start, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if c.ResumeSeq > int64(to) {
		t.Fatalf("device %s: server is at %d, ahead of the %d ever sent", dt.Device, c.ResumeSeq, to)
	}
	for i := int(c.ResumeSeq); i < to; i++ {
		if err := c.Send(&dt.Records[i]); err != nil {
			t.Fatal(err)
		}
	}
	if fin {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitRecords(t, s, dt.Device, int64(to))
	c.CloseAbort() //nolint:errcheck
}

// seqOf asks the shard the ring places device on for its high-water mark.
func seqOf(s *Server, device string) (seq int64) {
	sh := s.shard[s.ring.shard(device)]
	sh.ask(func() { seq = sh.seqs[device] })
	return seq
}

// newestLogBytes is the size of the newest base's delta log in dir.
func newestLogBytes(t *testing.T, dir string) int64 {
	t.Helper()
	bases, err := filepath.Glob(filepath.Join(dir, "ck-*.ck"))
	if err != nil || len(bases) == 0 {
		t.Fatalf("no base in %s (%v)", dir, err)
	}
	sort.Strings(bases)
	st, err := os.Stat(strings.TrimSuffix(bases[len(bases)-1], ".ck") + ".log")
	if err != nil {
		return 0
	}
	return st.Size()
}

// TestCommitsProperty drives one checkpointing, durable-FIN server and one
// that is never interrupted through the same seeded sequence of steps — some
// devices stream a chunk, one device FINs (and later streams again: a FIN
// closes a session, not a device), a checkpoint tick, a kill and restart under
// another shard count — and requires the two to agree whenever the first has
// everything on disk: headline (records exactly, energy to 1e-9) and every
// device's sequence number, found on the shard the new ring places it on. The
// run must have restored from a delta frame and have outgrown a base, or it
// never left the path the older tests already walk.
func TestCommitsProperty(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprint("seed ", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dts := synthgen.GenerateInMemory(synthgen.Small(12, 1))
			dir := t.TempDir()
			shards := []int{2, 3, 1, 4}
			starts := 0
			start := func() *Server {
				starts++
				return startServer(t, Config{
					Shards: shards[starts%len(shards)], QueueDepth: 16, BatchSize: 32,
					CheckpointDir: dir, CheckpointInterval: time.Hour, DurableFIN: true,
				})
			}
			sut, ref := start(), startServer(t, Config{Shards: 2, QueueDepth: 16, BatchSize: 32})
			pos := make([]int, len(dts)) // records of each device sent so far

			var restoredFromDelta, outgrewBase bool
			agree := func(label string) {
				t.Helper()
				sameHeadline(t, label, sut.Headline(), ref.Headline())
				for i, dt := range dts {
					if got, want := seqOf(sut, dt.Device), seqOf(ref, dt.Device); got != want || want != int64(pos[i]) {
						t.Fatalf("%s: device %s at seq %d, uninterrupted server at %d, sent %d", label, dt.Device, got, want, pos[i])
					}
				}
			}
			catchUp := func() { // clients retransmit what a kill took
				for i, dt := range dts {
					deliver(t, sut, dt, pos[i], false)
				}
				if err := sut.SaveCheckpoint(); err != nil {
					t.Fatal(err)
				}
			}
			restart := func() {
				outgrewBase = outgrewBase || sut.counters.ckptBases.Load() >= 2
				sut.Kill()
				restoredFromDelta = restoredFromDelta || newestLogBytes(t, dir) > 0
				sut = start()
			}

			for step := 0; step < 400; step++ {
				switch p := rng.Intn(100); {
				case p < 40: // a few devices stream a chunk
					for i, dt := range dts {
						if rng.Intn(2) == 0 && pos[i] < len(dt.Records) {
							pos[i] = min(pos[i]+30+rng.Intn(120), len(dt.Records))
							deliver(t, sut, dt, pos[i], false)
							deliver(t, ref, dt, pos[i], false)
						}
					}
				case p < 55: // a FIN, durable on sut before it is acknowledged
					i := rng.Intn(len(dts))
					deliver(t, sut, dts[i], pos[i], true)
					deliver(t, ref, dts[i], pos[i], true)
				case p < 96:
					if err := sut.SaveCheckpoint(); err != nil {
						t.Fatal(err)
					}
				case p < 98: // killed with everything on disk: the restart has it all
					catchUp()
					restart()
					agree(fmt.Sprint("step ", step, ", restart after a tick"))
				default: // killed as it is: open sessions fall back to their last commit
					restart()
				}
			}
			catchUp()
			restart()
			agree("end of run")
			if !restoredFromDelta || !outgrewBase {
				t.Errorf("restored from a delta frame: %t, outgrew a base: %t; the run must do both", restoredFromDelta, outgrewBase)
			}
		})
	}
}

// TestFailedCommitCostsABase: an append that fails is followed by a base that
// holds every device, the ones the failed frame would have carried included;
// a base that fails is followed by another base.
func TestFailedCommitCostsABase(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Shards: 2, CheckpointDir: dir, CheckpointInterval: time.Hour}
	s := startServer(t, cfg)
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 1))
	name := func(gen int, ext string) string { return filepath.Join(dir, fmt.Sprintf("ck-%08d.%s", gen, ext)) }
	commit := func(wantErr bool, wantGen uint64, wantErrors int64) {
		t.Helper()
		if err := s.SaveCheckpoint(); (err != nil) != wantErr {
			t.Fatalf("SaveCheckpoint: %v, want an error: %t", err, wantErr)
		}
		if st := s.Stats(false).Checkpoint; st.Generation != wantGen || st.Errors != wantErrors {
			t.Fatalf("generation %d, %d errors; want %d, %d", st.Generation, st.Errors, wantGen, wantErrors)
		}
	}
	// base reads generation gen's base straight off the disk, no log folded in.
	base := func(gen int) *checkpoint.Snapshot {
		t.Helper()
		b, err := os.ReadFile(name(gen, "ck"))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.DecodeFile(b)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	streamTrace(t, s.Addr().String(), dts[0])
	commit(false, 1, 0) // a base

	if err := os.Mkdir(name(1, "log"), 0o755); err != nil { // the log cannot be opened
		t.Fatal(err)
	}
	streamTrace(t, s.Addr().String(), dts[1])
	commit(true, 1, 1)
	commit(false, 2, 1)
	if got := base(2); len(got.Ledger) != 2 {
		t.Fatalf("the base after a failed append holds %d closed devices, want both", len(got.Ledger))
	}

	if err := os.Mkdir(name(2, "log"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(name(3, "ck"), "x"), 0o755); err != nil { // nor a base renamed into place
		t.Fatal(err)
	}
	streamTrace(t, s.Addr().String(), dts[2])
	commit(true, 2, 2) // the append
	commit(true, 2, 3) // the base after it
	if err := os.RemoveAll(name(3, "ck")); err != nil {
		t.Fatal(err)
	}
	commit(false, 3, 3)
	if got := base(3); len(got.Ledger) != 3 {
		t.Fatalf("the base after a failed base holds %d closed devices, want all three", len(got.Ledger))
	}
	if got := s.counters.ckptBases.Load(); got != 4 {
		t.Errorf("%d base writes counted, want 4 (three landed, one failed)", got)
	}

	want := s.Headline()
	s.Kill()
	sameHeadline(t, "restart", startServer(t, cfg).Headline(), want)
}

// preloadRetired writes into the checkpoint directory dir, for a server yet to
// start on it, a base of n devices that have each closed one session, dt's.
func preloadRetired(tb testing.TB, dir string, dt *trace.DeviceTrace, n int) {
	tb.Helper()
	acc := analysis.NewStreamAccumulator(dt.Device, batchOpts())
	for i := range dt.Records {
		acc.Feed(&dt.Records[i])
	}
	blob := acc.Finish().AppendBinary(nil)
	snap := &checkpoint.Snapshot{}
	for i := 0; i < n; i++ {
		snap.Ledger = append(snap.Ledger, checkpoint.RetiredRecord{
			Device: fmt.Sprintf("%s-retired-%d", dt.Device, i), Seq: int64(len(dt.Records)),
			CRC: crc32.ChecksumIEEE(blob), Blob: blob,
		})
	}
	st, err := checkpoint.Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if _, _, err := st.Save(snap); err != nil {
		tb.Fatal(err)
	}
}

// TestCommitBytesDoNotGrowWithTheNode: what one durable FIN writes on a node
// holding 5 000 retired devices is what it writes on one holding 50, and a
// tick with nothing to write writes nothing and still counts as a checkpoint.
func TestCommitBytesDoNotGrowWithTheNode(t *testing.T) {
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	perFIN := func(retired int) int64 {
		dir := t.TempDir()
		preloadRetired(t, dir, dt, retired)
		s := startServer(t, Config{
			Shards: 2, CheckpointDir: dir, CheckpointInterval: time.Hour, DurableFIN: true,
		})
		defer s.Kill()
		if got := s.devices.len(); got != retired {
			t.Fatalf("restored %d devices, preloaded %d", got, retired)
		}
		if err := s.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if got := s.counters.ckptBytes.Load(); got != s.ckpt.Written() || got < int64(retired)*1000 {
			t.Fatalf("the base is %d bytes by the gauge, %d by the store", got, s.ckpt.Written())
		}
		before := s.ckpt.Written()
		streamTrace(t, s.Addr().String(), dt) // the FIN commits
		written := s.ckpt.Written() - before
		if s.counters.finDurable.Load() != 1 || s.counters.ckptBases.Load() != 1 || s.counters.ckptBytes.Load() != written {
			t.Fatalf("%d durable FINs, %d bases, gauge %d, written %d; want one FIN backed by one frame",
				s.counters.finDurable.Load(), s.counters.ckptBases.Load(), s.counters.ckptBytes.Load(), written)
		}

		gen, last := s.counters.ckptGen.Load(), s.counters.ckptUnixNano.Load()
		time.Sleep(time.Millisecond)
		if err := s.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if s.ckpt.Written() != before+written || s.counters.ckptGen.Load() != gen || s.counters.ckptUnixNano.Load() <= last {
			t.Errorf("an idle tick wrote %d bytes, moved the generation %d -> %d, advanced the checkpoint time: %t",
				s.ckpt.Written()-before-written, gen, s.counters.ckptGen.Load(), s.counters.ckptUnixNano.Load() > last)
		}
		return written
	}
	small, large := perFIN(50), perFIN(5000)
	if small <= 0 || large > 2*small {
		t.Errorf("a durable FIN wrote %d bytes at 50 retired devices and %d at 5000: not O(group)", small, large)
	}
}

// TestDamagedLogIsReported: damage that is not a torn tail is never passed
// over in silence. A frame corrupted with a whole one after it stops the
// restore at the frame before, and so does an intact frame whose analysis
// state does not decode. Either way the operator is told:
// ingest_checkpoint_errors_total and the event log.
func TestDamagedLogIsReported(t *testing.T) {
	dts := synthgen.GenerateInMemory(synthgen.Small(3, 1))
	restart := func(t *testing.T, dir string, wantGen uint64, wantRecords int64) {
		t.Helper()
		s := startServer(t, Config{Shards: 2, CheckpointDir: dir, CheckpointInterval: time.Hour})
		st := s.Stats(false)
		if st.Checkpoint.Errors != 1 || st.Checkpoint.Generation != wantGen || st.Records != wantRecords {
			t.Errorf("restored generation %d with %d records and %d checkpoint errors; want %d, %d and 1",
				st.Checkpoint.Generation, st.Records, st.Checkpoint.Errors, wantGen, wantRecords)
		}
		var told bool
		for _, e := range s.counters.events.Recent(0, obs.LevelError) {
			told = told || strings.Contains(e.Msg, "checkpoint damaged")
		}
		if !told {
			t.Error("nothing in the event log about the damage")
		}
	}

	t.Run("corrupt middle frame", func(t *testing.T) {
		dir := t.TempDir()
		s := startServer(t, Config{Shards: 2, CheckpointDir: dir, CheckpointInterval: time.Hour, DurableFIN: true})
		if err := s.SaveCheckpoint(); err != nil { // an empty base, then a frame per FIN
			t.Fatal(err)
		}
		for _, dt := range dts {
			streamTrace(t, s.Addr().String(), dt)
		}
		s.Kill()
		logFile := filepath.Join(dir, "ck-00000001.log")
		b, err := os.ReadFile(logFile)
		if err != nil {
			t.Fatal(err)
		}
		second := len(b) / 2 // three frames of about one size: inside the second
		b[second] ^= 0x01
		if err := os.WriteFile(logFile, b, 0o644); err != nil {
			t.Fatal(err)
		}
		restart(t, dir, 2, int64(len(dts[0].Records)))
	})

	t.Run("frame that does not decode", func(t *testing.T) {
		dir := t.TempDir()
		st, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Save(&checkpoint.Snapshot{Devices: []checkpoint.DeviceState{{Device: "d", Seq: 4}}}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(&checkpoint.Snapshot{Devices: []checkpoint.DeviceState{{Device: "d", Seq: 9, Acc: []byte("not an accumulator")}}}); err != nil {
			t.Fatal(err)
		}
		restart(t, dir, 1, 4)
	})
}
