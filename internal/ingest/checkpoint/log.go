package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

// Append commits snap — the devices that changed since the last commit, each
// with its whole state — as one frame at the end of the current base's delta
// log, and returns the generation that makes. The frame is on disk, fsynced,
// when Append returns. A failed Append may leave part of a frame behind, which
// a restore discards as a torn tail; the Store then takes no more frames
// until the next Save.
func (s *Store) Append(snap *Snapshot) (gen uint64, err error) {
	if s.base == 0 {
		return 0, errors.New("checkpoint: no base to append to")
	}
	defer func() {
		if err != nil {
			s.dropBase()
		}
	}()
	frame, err := EncodeFile(snap)
	if err != nil {
		return 0, err
	}
	created := s.log == nil
	if created {
		// Truncated: nothing this base did not write belongs in its log.
		if s.log, err = os.OpenFile(logPath(s.dir, s.base), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o600); err != nil {
			return 0, err
		}
	}
	if _, err := s.log.Write(frame); err != nil {
		return 0, err
	}
	if err := s.log.Sync(); err != nil {
		return 0, err
	}
	if created {
		syncDir(s.dir) // the log's name is as new as its first frame
	}
	s.gen++
	s.logSize += int64(len(frame))
	s.written += int64(len(frame))
	return s.gen, nil
}

// dropBase makes the next commit a base: the current log, if any, is closed
// for good.
func (s *Store) dropBase() {
	if s.log != nil {
		s.log.Close() //nolint:errcheck // every frame in it was fsynced as it was written
		s.log = nil
	}
	s.base = 0
}

// loadLog reads the delta log at path, if there is one, as readLog does.
func loadLog(path string) ([]*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return readLog(b)
}

// readLog parses a delta log, images end to end, and returns the whole frames
// at its head. The first bytes that do not parse as a frame end the walk. When
// no whole frame lies anywhere after them they are the torn tail of an
// interrupted Append, whose commit nobody was told of, and there is no error;
// when one does, the log is corrupt in the middle, and the error says where —
// the frames returned are still the ones before the damage.
func readLog(b []byte) (frames []*Snapshot, err error) {
	for off := 0; off < len(b); {
		snap, n, derr := decodeImage(b[off:])
		if errors.Is(derr, ErrUnsupported) {
			return frames, derr
		}
		if derr != nil {
			if frameWithin(b[off+1:]) {
				return frames, fmt.Errorf("%w: frame %d (offset %d) is invalid (%v) and a whole frame follows it", ErrCorrupt, len(frames), off, derr)
			}
			return frames, nil
		}
		frames = append(frames, snap)
		off += n
	}
	return frames, nil
}

// frameWithin reports whether a whole frame starts anywhere in b.
func frameWithin(b []byte) bool {
	for {
		i := bytes.Index(b, fileMagic)
		if i < 0 {
			return false
		}
		_, _, err := decodeImage(b[i:])
		if err != nil {
			b = b[i+1:]
			continue
		}
		return true
	}
}

// fold applies frames over base, in order: a device takes its whole state —
// live entry, ledger entry or both — from the last snapshot that names it.
func fold(base *Snapshot, frames []*Snapshot) *Snapshot {
	srcs := append([]*Snapshot{base}, frames...)
	last := map[string]int{}
	for i, s := range srcs {
		for j := range s.Devices {
			last[s.Devices[j].Device] = i
		}
		for j := range s.Ledger {
			last[s.Ledger[j].Device] = i
		}
	}
	out := &Snapshot{Legacy: base.Legacy}
	for i, s := range srcs {
		for _, d := range s.Devices {
			if last[d.Device] == i {
				out.Devices = append(out.Devices, d)
			}
		}
		for _, r := range s.Ledger {
			if last[r.Device] == i {
				out.Ledger = append(out.Ledger, r)
			}
		}
	}
	return out
}
