package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"netenergy/internal/analysis"
	"netenergy/internal/energy"
	"netenergy/internal/trace"
)

// FuzzCheckpointDecoder feeds arbitrary bytes through the full checkpoint
// decode path — file container, snapshot payload, and the nested analysis
// accumulator/result blobs — exactly as a recovering server would. It must
// return clean errors on malformed input, never panic or allocate beyond
// the declared caps.
func FuzzCheckpointDecoder(f *testing.F) {
	// Seed with a realistic full checkpoint file.
	opts := energy.DefaultOptions()
	opts.KeepPackets = false
	acc := analysis.NewStreamAccumulator("u000", opts)
	for _, r := range []trace.Record{
		{Type: trace.RecProcState, TS: 1000, App: 3, State: trace.StateService},
		{Type: trace.RecScreen, TS: 1500, ScreenOn: true},
		{Type: trace.RecPacket, TS: 2000, App: 3, Dir: trace.DirUp,
			Net: trace.NetCellular, State: trace.StateService,
			Payload: []byte{0x45, 0, 0, 20, 0, 1, 0, 0, 64, 6, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}},
	} {
		r := r
		acc.Feed(&r)
	}
	retired := analysis.NewStreamResult("fleet")
	retBlob := retired.AppendBinary(nil)
	snap := &Snapshot{
		Devices: []DeviceState{
			{Device: "u000", Seq: 3, Acc: acc.AppendState(nil)},
			{Device: "u001", Seq: 17},
		},
		Ledger: []RetiredRecord{
			{Device: "u001", Seq: 17, CRC: crc32.ChecksumIEEE(retBlob), Blob: retBlob},
		},
	}
	// Stamped with the fence an older build's cluster mode wrote: the
	// decoder still reads it.
	payload := withFence(Encode(snap), 2, "n1.1.1")
	hdr := append([]byte(nil), fileMagic...)
	f.Add(append(hdr, payload...)) // wrong header shape: exercises torn/corrupt paths
	f.Add(payload)
	f.Add(withLegacy(snap, retBlob)) // as written before the aggregate went
	v1 := bytes.Clone(payload[:len(payload)-10])
	v1[0] = 1
	f.Add(v1)
	f.Add([]byte("NECKPT1\n"))
	f.Add([]byte{})
	// A payload truncated inside the ledger section.
	ledgerAt := len(Encode(&Snapshot{Devices: snap.Devices})) - 3
	f.Add(payload[:ledgerAt+(len(payload)-ledgerAt)/2])
	// And one truncated mid-fence (last few bytes gone).
	f.Add(payload[:len(payload)-3])

	// A fully valid file as produced by Save.
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path, _, err := st.Save(snap)
	if err != nil {
		f.Fatal(err)
	}
	if b, err := os.ReadFile(path); err == nil {
		f.Add(b)
	}
	// A file the parent build wrote, its fence naming the process.
	if b, err := os.ReadFile(filepath.Join("testdata", "parent-v2.ck")); err == nil {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeFile(data)
		if err != nil {
			// Also exercise the bare payload decoder on the same bytes.
			if s2, err2 := Decode(data); err2 == nil {
				snap = s2
			} else {
				return
			}
		}
		// Validate nested blobs the way Server restore does.
		opts := energy.DefaultOptions()
		opts.KeepPackets = false
		for _, d := range snap.Devices {
			if d.Acc != nil {
				a, err := analysis.RestoreStreamAccumulator(d.Acc, opts)
				if err != nil {
					continue
				}
				// A restored accumulator must be feedable.
				r := trace.Record{Type: trace.RecScreen, TS: 1 << 40, ScreenOn: true}
				a.Feed(&r)
			}
		}
		if snap.Legacy != nil {
			analysis.DecodeStreamResult(snap.Legacy) //nolint:errcheck // must not panic
		}
		for _, r := range snap.Ledger {
			analysis.DecodeStreamResult(r.Blob) //nolint:errcheck // must not panic
		}
	})
}

// FuzzCheckpointLog feeds arbitrary bytes through the delta-log reader —
// images end to end, seeded from a real log whole, torn and damaged in the
// middle — and folds what it returns. Whatever the bytes, the reader must not
// panic, must report damage only as ErrCorrupt or ErrUnsupported, and the
// fold must keep every device some frame names and survive its own encoding.
func FuzzCheckpointLog(f *testing.F) {
	_, _, log, offs, _ := threeFrameStore(f)
	f.Add(log)
	f.Add(log[:offs[2]+9])
	flipped := bytes.Clone(log)
	flipped[offs[1]+20] ^= 0xff
	f.Add(flipped)
	f.Add(append(bytes.Clone(log[offs[2]:]), log[:offs[1]]...))
	f.Add([]byte("NECKPT1\nNECKPT1\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := readLog(data)
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUnsupported) {
			t.Fatalf("readLog: %v", err)
		}
		got := fold(&Snapshot{}, frames)
		named, kept := map[string]bool{}, map[string]bool{}
		for _, fr := range append(frames, got) {
			into := named
			if fr == got {
				into = kept
			}
			for _, d := range fr.Devices {
				into[d.Device] = true
			}
			for _, r := range fr.Ledger {
				into[r.Device] = true
			}
		}
		if len(kept) != len(named) {
			t.Fatalf("frames name %d devices, their fold %d", len(named), len(kept))
		}
		file, err := EncodeFile(got)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := DecodeFile(file); err != nil || len(again.Devices) != len(got.Devices) || len(again.Ledger) != len(got.Ledger) {
			t.Fatalf("folded state does not survive its encoding: %v", err)
		}
	})
}
