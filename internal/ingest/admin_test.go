package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netenergy/internal/synthgen"
)

func adminGet(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func adminPost(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Post(url, "", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: decode: %v", url, err)
		}
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	return resp.StatusCode
}

// TestAdminErrorPaths exercises the admin surface's failure branches:
// malformed and unknown /device queries, wrong-method and while-draining
// /checkpoint, and snapshotting during shutdown; /healthz stays "ok" while
// draining.
func TestAdminErrorPaths(t *testing.T) {
	dir := t.TempDir()
	s := startServer(t, Config{
		AdminAddr: "127.0.0.1:0", Shards: 2, QueueDepth: 8, BatchSize: 8,
		CheckpointDir: dir, CheckpointInterval: time.Hour, // manual-only
	})
	base := fmt.Sprintf("http://%s", s.AdminAddr())
	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	streamTrace(t, s.Addr().String(), dt)

	// /device: missing id, unknown id, known id.
	if code := adminGet(t, base+"/device", nil); code != http.StatusBadRequest {
		t.Errorf("/device without id: %d, want 400", code)
	}
	if code := adminGet(t, base+"/device?id=no-such-device", nil); code != http.StatusNotFound {
		t.Errorf("/device unknown id: %d, want 404", code)
	}
	var ds DeviceStats
	if code := adminGet(t, base+"/device?id="+dt.Device, &ds); code != http.StatusOK {
		t.Errorf("/device known id: %d, want 200", code)
	} else if ds.Records != int64(len(dt.Records)) || ds.Conns != 1 {
		t.Errorf("/device stats = %+v, want %d records over 1 conn", ds, len(dt.Records))
	}

	// /checkpoint: GET refused, POST forces a save.
	if code := adminGet(t, base+"/checkpoint", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /checkpoint: %d, want 405", code)
	}
	var ck CheckpointStats
	if code := adminPost(t, base+"/checkpoint", &ck); code != http.StatusOK {
		t.Errorf("POST /checkpoint: %d, want 200", code)
	} else if ck.Generation < 1 || ck.Bytes <= 0 {
		t.Errorf("checkpoint after POST = %+v", ck)
	}

	// Simulate the drain window: checkpointing must refuse (the final
	// checkpoint belongs to Shutdown), but stats and headline snapshots
	// must keep working so operators can watch the drain.
	s.mu.Lock()
	s.drain = true
	s.mu.Unlock()
	if code := adminPost(t, base+"/checkpoint", nil); code != http.StatusServiceUnavailable {
		t.Errorf("POST /checkpoint while draining: %d, want 503", code)
	}
	var st Stats
	if code := adminGet(t, base+"/stats?devices=1", &st); code != http.StatusOK {
		t.Errorf("/stats while draining: %d, want 200", code)
	} else if st.Records != int64(len(dt.Records)) {
		t.Errorf("/stats records while draining = %d, want %d", st.Records, len(dt.Records))
	}
	var h LiveHeadline
	if code := adminGet(t, base+"/headline", &h); code != http.StatusOK {
		t.Errorf("/headline while draining: %d, want 200", code)
	} else if h.Records != int64(len(dt.Records)) || h.TotalEnergyJ <= 0 {
		t.Errorf("/headline while draining = %+v", h)
	}
	if resp, err := http.Get(base + "/healthz"); err != nil {
		t.Errorf("/healthz while draining: %v", err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			t.Errorf("/healthz while draining: %d %q, want 200 \"ok\\n\"", resp.StatusCode, body)
		}
	}
	s.mu.Lock()
	s.drain = false
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdminCheckpointDisabled: with no checkpoint directory configured the
// manual trigger must refuse rather than pretend.
func TestAdminCheckpointDisabled(t *testing.T) {
	s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	}()
	url := fmt.Sprintf("http://%s/checkpoint", s.AdminAddr())
	if code := adminPost(t, url, nil); code != http.StatusServiceUnavailable {
		t.Errorf("POST /checkpoint without durability: %d, want 503", code)
	}
}

// TestHeadlineSmallNode: a node holding little data has headline ratios
// with nothing under them. The device and record count are the smallest
// synthgen case where that happens — the 5-minute spike score's
// neighbourhood is all zero and the score +Inf, which the JSON encoder
// refuses — and /headline used to answer that with 200 and an empty body.
func TestHeadlineSmallNode(t *testing.T) {
	s := startServer(t, Config{AdminAddr: "127.0.0.1:0", Shards: 2})
	defer s.Shutdown(context.Background()) //nolint:errcheck
	dt := synthgen.GenerateDevice(synthgen.Small(2, 2), 1)
	dt.Records = dt.Records[:1800]
	if f6 := newBenchAccumulator(dt, 1800).Snapshot().SinceForeground(); !math.IsInf(f6.Spike5m, 1) {
		t.Fatalf("fixture lost its zero denominator: Spike5m = %v", f6.Spike5m)
	}
	streamTrace(t, s.Addr().String(), dt)

	var h LiveHeadline
	if code := adminGet(t, fmt.Sprintf("http://%s/headline", s.AdminAddr()), &h); code != http.StatusOK {
		t.Fatalf("/headline: %d", code)
	}
	if h.Records != 1800 || h.TotalEnergyJ <= 0 || h.Fig6Spike5m != 0 {
		t.Fatalf("headline = %+v, want 1800 records, energy, and a zero spike score", h)
	}
}

// TestWriteJSONEncodeFailure: what the encoder refuses is a 500 with the
// reason, whatever handler it came from.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, struct{ V float64 }{math.NaN()})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "NaN") {
		t.Fatalf("status %d body %q, want 500 naming the NaN", rec.Code, rec.Body.String())
	}
}
