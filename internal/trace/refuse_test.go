package trace_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// TestLegacyMagicRefused: a file in a container older builds wrote — its
// magic, then a valid file header — is refused on every way into a trace
// file with ErrBadMagic, and the message says how to migrate it: commit
// 9ef790b's tracecat -convert. Any other unknown magic is ErrBadMagic alone.
func TestLegacyMagicRefused(t *testing.T) {
	var flat bytes.Buffer
	w, err := trace.NewWriter(&flat, "u00", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	header := flat.Bytes()[len("METR1\n"):]

	open := func(t *testing.T, path string) *os.File {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	paths := []struct {
		name string
		read func(t *testing.T, path string) error
	}{
		{"NewReader", func(t *testing.T, path string) error {
			_, err := trace.NewReader(open(t, path))
			return err
		}},
		{"NewBatchReader", func(t *testing.T, path string) error {
			_, err := trace.NewBatchReader(open(t, path))
			return err
		}},
		{"ReadFile", func(t *testing.T, path string) error {
			_, err := trace.ReadFile(path)
			return err
		}},
		{"ReadFileParallel", func(t *testing.T, path string) error {
			_, err := trace.ReadFileParallel(path, 4)
			return err
		}},
		{"ScanFile", func(t *testing.T, path string) error {
			_, err := trace.ScanFile(path, trace.ScanOptions{Range: trace.TimeRange{To: 1 << 62}}, nil,
				func(*trace.RecordBatch) error { return nil })
			return err
		}},
		{"DetectFileFormat", func(t *testing.T, path string) error {
			_, err := trace.DetectFileFormat(path)
			return err
		}},
		{"Fleet.EachDevice", func(t *testing.T, path string) error {
			fleet, err := trace.OpenFleet(filepath.Dir(path))
			if err != nil {
				t.Fatal(err)
			}
			return fleet.EachDevice(func(*trace.DeviceTrace) error { return nil })
		}},
		{"tsq.QueryDir", func(t *testing.T, path string) error {
			_, err := tsq.Engine{}.QueryDir(filepath.Dir(path), tsq.Query{To: 1 << 62})
			return err
		}},
	}

	for _, c := range []struct {
		name, magic string
		legacy      bool
	}{{"METZ1", "METZ1\n", true}, {"METR-2", "METR2\n", true}, {"unknown", "METR9\n", false}} {
		path := filepath.Join(t.TempDir(), "u00.metr")
		if err := os.WriteFile(path, append([]byte(c.magic), header...), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			t.Run(c.name+"/"+p.name, func(t *testing.T) {
				err := p.read(t, path)
				if !errors.Is(err, trace.ErrBadMagic) {
					t.Fatalf("err = %v, want ErrBadMagic", err)
				}
				msg := err.Error()
				named := strings.Contains(msg, c.name+" container") &&
					strings.Contains(msg, "9ef790b") && strings.Contains(msg, "tracecat -convert")
				if named != c.legacy {
					t.Fatalf("err = %q: names the container and its migration: %v, want %v", msg, named, c.legacy)
				}
			})
		}
	}
	// Sniffing itself returns the sentinel for an unknown magic, unwrapped.
	if _, err := trace.NewReader(strings.NewReader("METR9\n" + string(header))); err != trace.ErrBadMagic {
		t.Fatalf("unknown magic: err = %v, want ErrBadMagic itself", err)
	}
}
