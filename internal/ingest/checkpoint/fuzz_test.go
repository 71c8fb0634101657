package checkpoint

import (
	"bytes"
	"hash/crc32"
	"os"
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
		Fence: Fence{Epoch: 2, Incarnation: "n1.1.1"},
	}
	payload := Encode(snap)
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
