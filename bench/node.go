package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"netenergy/internal/ingest"
	"netenergy/internal/trace"
)

// node is a running ingestd plus the generator's own ledger of what it
// delivered, which the correctness gate reconciles against the server.
type node struct {
	r      *run
	c      *child
	ckDir  string
	segDir string

	mu      sync.Mutex
	sent    map[string]int64             // device -> records acked
	mult    map[*trace.DeviceTrace]int64 // base trace -> completed deliveries
	records int64
	seq     int64 // replica counter; 0 is reserved for the base name
}

// startNode launches ingestd the way every serving workload runs it: one
// shard per core, checkpoints every second (fsynced, as shipped), and a
// segment store rolling at segmentMaxBytes. bare drops both stores — the
// ledger probe's floor.
func startNode(r *run, durableFIN, bare bool) (*node, error) {
	dir, err := r.subdir("node")
	if err != nil {
		return nil, err
	}
	n := &node{r: r, sent: map[string]int64{}, mult: map[*trace.DeviceTrace]int64{}}
	args := []string{"-shards", strconv.Itoa(r.cfg.nproc)}
	if !bare {
		n.ckDir, n.segDir = filepath.Join(dir, "ck"), filepath.Join(dir, "seg")
		args = append(args,
			"-checkpoint-dir", n.ckDir, "-checkpoint-interval", "1s",
			"-segment-dir", n.segDir, "-segment-max-bytes", strconv.Itoa(segmentMaxBytes))
	}
	if durableFIN {
		args = append(args, "-durable-fin")
	}
	if n.c, err = startChild(r.cfg.ingestd, dir, args...); err != nil {
		return nil, err
	}
	return n, nil
}

// nextReplica hands out fresh replica numbers, starting at 1.
func (n *node) nextReplica() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	return n.seq
}

// deliver streams one base trace as replica k in a single session and
// returns once the server has acknowledged its FIN.
func (n *node) deliver(dt *trace.DeviceTrace, k int64) error {
	name := replica(dt, k)
	st, err := ingest.StreamTrace(ingest.SessionConfig{
		Addr:     n.c.stream,
		Device:   name,
		Start:    dt.Start,
		Deadline: 10 * time.Second,
	}, dt.Records)
	if err != nil {
		return err
	}
	if st.Conns != 1 || st.Retransmitted != 0 {
		return fmt.Errorf("session %s needed %d connections, %d retransmits", name, st.Conns, st.Retransmitted)
	}
	n.mu.Lock()
	n.sent[name] += st.Records
	n.mult[dt]++
	n.records += st.Records
	n.mu.Unlock()
	return nil
}

// populate delivers every trace of pool once under its base name: the
// sealed history the query workloads read.
func (n *node) populate(pool []*trace.DeviceTrace) error {
	errs := make(chan error, len(pool))
	sem := make(chan struct{}, n.r.cfg.nproc)
	for _, dt := range pool {
		sem <- struct{}{}
		go func(dt *trace.DeviceTrace) {
			errs <- n.deliver(dt, 0)
			<-sem
		}(dt)
	}
	var first error
	for range pool {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: decoding the answer: %w", url, err)
	}
	return nil
}

// reconcile is the ingest half of the correctness gate: the server's
// per-device and total record counts equal what was acknowledged to the
// generator, nothing was dropped, duplicated or severed, and the live fleet
// headline's energy equals the batch pipeline's over the same traces.
func (n *node) reconcile() error {
	r := n.r
	var st ingest.Stats
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := getJSON(n.c.admin+"/stats?devices=1", &st); err != nil {
			return err
		}
		if st.Records >= n.records || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	r.check(st.Records == n.records, "server accepted %d records, generator had %d acknowledged", st.Records, n.records)
	r.check(st.Devices == len(n.sent), "server knows %d devices, generator delivered %d", st.Devices, len(n.sent))
	wrong := 0
	for dev, want := range n.sent {
		if st.PerDevice[dev].Records != want {
			wrong++
		}
	}
	r.check(wrong == 0, "%d of %d devices disagree on their record count", wrong, len(n.sent))
	r.check(st.Duplicates == 0 && st.Severs == 0 && st.CRCErrors == 0 && st.DecodeErrors == 0 && st.FrameErrors == 0,
		"server saw %d duplicates, %d severs, %d crc, %d decode, %d frame errors",
		st.Duplicates, st.Severs, st.CRCErrors, st.DecodeErrors, st.FrameErrors)

	var h ingest.LiveHeadline
	if err := getJSON(n.c.admin+"/headline", &h); err != nil {
		return err
	}
	var want float64
	for dt, k := range n.mult {
		e, err := batchEnergy(dt)
		if err != nil {
			return err
		}
		want += float64(k) * e
	}
	r.check(h.Records == n.records, "headline counts %d records, want %d", h.Records, n.records)
	r.check(relClose(h.TotalEnergyJ, want, 1e-6), "headline energy %.6f J, batch pipeline says %.6f J", h.TotalEnergyJ, want)
	return nil
}

// stop drains the child and reports what it left on disk.
func (n *node) stop() (diskBytes, diskRecords int64, err error) {
	// A node that holds nothing has nothing to drain.
	if err := n.c.stop(); err != nil && !(errors.Is(err, errNoDrain) && n.records == 0) {
		return 0, 0, err
	}
	for _, dir := range []string{n.ckDir, n.segDir} {
		if dir == "" {
			continue
		}
		b, err := dirBytes(dir)
		if err != nil {
			return 0, 0, err
		}
		diskBytes += b
	}
	return diskBytes, n.records, nil
}
