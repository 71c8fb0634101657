package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"netenergy/internal/synthgen"
	"netenergy/internal/trace"
	"netenergy/internal/tsq"
)

// TestQueryCatalogMatchesListing holds /query, which runs on the node's
// catalog, to the engine over a fresh listing of the same directory, as
// the directory's life goes on: every wide, narrow and top-N answer, the
// scan block aside, must be the listing's, asked cold and again warm.
func TestQueryCatalogMatchesListing(t *testing.T) {
	dir := t.TempDir()
	dts := synthgen.GenerateInMemory(synthgen.Small(4, 2))
	cfg := Config{
		AdminAddr: "127.0.0.1:0", Shards: 2, QueueDepth: 16, BatchSize: 32,
		SegmentDir: dir, SegmentMaxBytes: 64 << 10,
	}
	s := startServer(t, cfg)
	defer func() { s.Shutdown(context.Background()) }() //nolint:errcheck

	span := [2]trace.Timestamp{dts[0].Records[0].TS, dts[0].Records[0].TS}
	for _, dt := range dts {
		for i := range dt.Records {
			span[0], span[1] = min(span[0], dt.Records[i].TS), max(span[1], dt.Records[i].TS)
		}
	}
	const hour = 3_600_000_000
	mid := (span[0] + span[1]) / 2
	queries := []string{
		fmt.Sprintf("from=%d&to=%d&window=hour", span[0]-24*hour, span[1]+24*hour),
		fmt.Sprintf("from=%d&to=%d", mid, mid+hour),
		fmt.Sprintf("from=%d&to=%d&window=hour&topn=5", span[0]-24*hour, span[1]+24*hour),
		fmt.Sprintf("from=%d&to=%d&topn=3", span[0], span[1]+1),
	}

	var live *Client // the open session of the third row
	tests := []struct {
		name       string
		step       func(t *testing.T)
		downsample bool // the answers hold the rollup
	}{
		{"streamed", func(t *testing.T) {
			streamTrace(t, addrOf(s), dts[0])
			streamTrace(t, addrOf(s), dts[1])
		}, false},
		{"after a roll", func(t *testing.T) {
			before := len(segmentFiles(t, dir))
			streamTrace(t, addrOf(s), dts[2])
			if after := len(segmentFiles(t, dir)); after < before+2 {
				t.Fatalf("the third device wrote %d files, want a roll", after-before)
			}
		}, false},
		{"open files after a sync", func(t *testing.T) {
			dt := dts[3]
			c, err := Dial(addrOf(s), dt.Device, dt.Start, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			live = c
			half := len(dt.Records) / 2
			for i := range dt.Records[:half] {
				if err := c.Send(&dt.Records[i]); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			want := int64(len(dts[0].Records) + len(dts[1].Records) + len(dts[2].Records) + half)
			for deadline := time.Now().Add(5 * time.Second); s.counters.records.Load() < want; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d records applied", s.counters.records.Load(), want)
				}
			}
		}, false},
		{"after retention against the live directory", func(t *testing.T) {
			rep, err := tsq.Engine{Opts: s.cfg.Opts}.ApplyRetention(dir, mid, hour)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FilesRemoved == 0 || rep.FilesKept == 0 {
				t.Fatalf("retention at mid-span: %+v, want some files folded and some kept", rep)
			}
		}, true},
		{"after a restart", func(t *testing.T) {
			if err := live.CloseAbort(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			s = startServer(t, cfg)
			// The restarted node numbers each device's files past every
			// name the rollup folded, not only past the files left.
			cat, err := openCatalog(dir)
			if err != nil {
				t.Fatal(err)
			}
			seqs := seedSegmentSeqs(cat.Names())
			for _, name := range foldedNames(t, dir) {
				stem, _ := strings.CutSuffix(name, segmentExt)
				i := strings.LastIndexByte(stem, '-')
				n, err := strconv.Atoi(stem[i+1:])
				if err != nil || seqs[stem[:i]] <= n {
					t.Fatalf("folded %s, yet the next file of %s is numbered %d", name, stem[:i], seqs[stem[:i]])
				}
			}
		}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.step(t)
			base := "http://" + s.AdminAddr().String()
			for _, raw := range queries {
				vals, err := url.ParseQuery(raw)
				if err != nil {
					t.Fatal(err)
				}
				q, err := tsq.ParseQuery(vals, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				for _, when := range []string{"cold", "warm"} {
					var got tsq.Result
					if code := adminGet(t, base+"/query?"+raw, &got); code != http.StatusOK {
						t.Fatalf("%s %s: /query: %d", when, raw, code)
					}
					want, err := tsq.Engine{Opts: s.cfg.Opts}.QueryDir(dir, q)
					if err != nil {
						t.Fatal(err)
					}
					if a, b := resultBody(t, &got), resultBody(t, want); a != b {
						t.Fatalf("%s %s: /query answers\n%s\nthe listing answers\n%s", when, raw, a, b)
					}
					if q.Window > 0 && got.Downsampled != tt.downsample {
						t.Fatalf("%s %s: downsampled %v, want %v", when, raw, got.Downsampled, tt.downsample)
					}
				}
			}
		})
	}
}

// resultBody is a result's JSON with the scan block blanked.
func resultBody(t *testing.T, res *tsq.Result) string {
	t.Helper()
	c := *res
	c.Scan = tsq.ScanStats{}
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// foldedNames is the segment names dir's rollup lists as folded.
func foldedNames(t *testing.T, dir string) []string {
	t.Helper()
	var roll struct {
		Folded []struct {
			Name string `json:"name"`
		} `json:"folded"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "rollup.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &roll); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range roll.Folded {
		names = append(names, f.Name)
	}
	if len(names) == 0 {
		t.Fatal("the rollup lists no folded segment")
	}
	return names
}
