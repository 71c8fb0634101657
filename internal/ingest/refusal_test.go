package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"netenergy/internal/ingest/checkpoint"
	"netenergy/internal/synthgen"
)

// TestRedirectAck: a node of an older build in cluster mode answers
// the handshake of a device it does not own with status 3 and the owner's
// address. The client refuses it by name, and the session ends there: no
// second connection, to that node or to the address it named.
func TestRedirectAck(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer conn.Close()
				if _, _, _, err := readHello(bufio.NewReader(conn)); err != nil {
					return
				}
				owner := ln.Addr().String() // the node would name another; this one names itself
				ack := binary.AppendUvarint([]byte{ackRedirect}, uint64(len(owner)))
				conn.Write(append(ack, owner...)) //nolint:errcheck // the client reads or it does not
			}()
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(conn, "dev", 0, 0); !errors.Is(err, errRedirectAck) || !strings.Contains(err.Error(), "status 3") {
		t.Fatalf("NewClient: %v, want the redirect ack refused by its status", err)
	}

	dt := synthgen.GenerateInMemory(synthgen.Small(1, 1))[0]
	accepted.Store(0)
	t0 := time.Now()
	st, err := StreamTrace(SessionConfig{
		Addr: ln.Addr().String(), Device: dt.Device, Start: dt.Start,
		Deadline: 30 * time.Second,
		Backoff:  Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	}, dt.Records)
	if !errors.Is(err, errRedirectAck) {
		t.Fatalf("StreamTrace: %v, want the redirect ack refused", err)
	}
	if n := accepted.Load(); n != 1 || st.Conns != 0 || time.Since(t0) > 10*time.Second {
		t.Errorf("session dialed %d times, took %d connections, ran %s; want one refused handshake and an immediate end",
			n, st.Conns, time.Since(t0))
	}
}

// TestStartRefusesShippedCheckpointDir: a checkpoint directory holding an
// older build's handoff tombstone had its state shipped to other nodes.
// Start fails naming the tombstone, whatever generations sit beside it,
// and leaves the directory as it found it.
func TestStartRefusesShippedCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Save(&checkpoint.Snapshot{Devices: []checkpoint.DeviceState{{Device: "shipped", Seq: 5}}}); err != nil {
		t.Fatal(err)
	}
	tomb := filepath.Join(dir, "handoff.tomb")
	if err := os.WriteFile(tomb, []byte(`{"node":"n2","incarnation":"n2.1.2","generation":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	s := NewServer(Config{Addr: "127.0.0.1:0", Shards: 1, CheckpointDir: dir})
	err = s.Start()
	if err == nil {
		s.Kill()
		t.Fatal("Start restored a directory an older build had shipped")
	}
	if !errors.Is(err, checkpoint.ErrUnsupported) || !strings.Contains(err.Error(), tomb) {
		t.Fatalf("Start error %q: want ErrUnsupported naming %s", err, tomb)
	}
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("directory held %d entries, now %d", len(before), len(after))
	}
}

// TestStartRefusesUndecodableLedgerBlob: a generation that is well framed,
// its retired device's blob intact under its CRC, but whose blob is not a
// stream result, is refused. Start fails naming the device rather than
// restoring it with no closed sessions.
func TestStartRefusesUndecodableLedgerBlob(t *testing.T) {
	dir := t.TempDir()
	st, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("not a stream result")
	ledger := []checkpoint.RetiredRecord{{Device: "dev-garbled", Seq: 3, CRC: crc32.ChecksumIEEE(blob), Blob: blob}}
	if _, _, err := st.Save(&checkpoint.Snapshot{Ledger: ledger}); err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Addr: "127.0.0.1:0", Shards: 1, CheckpointDir: dir})
	if err := s.Start(); err == nil {
		s.Kill()
		t.Fatal("Start restored a retired device whose blob does not decode")
	} else if !strings.Contains(err.Error(), `"dev-garbled"`) {
		t.Fatalf("Start error %q: want it to name the device", err)
	}
}

// TestRemovedAdminPaths: the endpoints that only the cluster tier called are
// gone, and the admin mux answers them as it answers any unknown path.
func TestRemovedAdminPaths(t *testing.T) {
	s := startServer(t, Config{Shards: 1, AdminAddr: "127.0.0.1:0"})
	base := "http://" + s.AdminAddr().String()
	for _, path := range []string{"/snapshot", "/transfer", "/fence"} {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			req, err := http.NewRequest(method, base+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
			}
		}
	}
}
