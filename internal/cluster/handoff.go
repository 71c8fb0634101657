package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"netenergy/internal/ingest"
	"netenergy/internal/ingest/checkpoint"
)

// ShipPolicy bounds the per-survivor retry loop around a checkpoint
// handoff. The zero value means one attempt per survivor, no retries.
type ShipPolicy struct {
	// Attempts is the total tries per survivor (default 1). Re-delivery is
	// idempotent on the receiver (everything in a checkpoint installs under
	// the positional rule), so retrying a transfer whose reply was lost
	// cannot double-count.
	Attempts int
	// Backoff paces the retries (zero value: 50ms base, 5s cap, jittered).
	Backoff ingest.Backoff
	// OnAttempt, when set, observes every attempt after the first — the
	// per-attempt metrics hook (attempt is 2-based by the time it fires).
	OnAttempt func(member string, attempt int, err error)
}

// Handoff reports what ShipDir did with a node's checkpoint directory.
type Handoff struct {
	// Generation is the checkpoint generation that was shipped.
	Generation uint64
	// Answered is how many survivors took the file and kept their share;
	// Adopted is how many device states they accepted between them.
	Answered, Adopted int
	// Tombstone is the fence written into the directory once the shipped
	// state lives (at least partly) elsewhere; nil when no survivor answered.
	Tombstone *checkpoint.Tombstone
}

// ShipDir hands the state of node — the newest valid generation in its
// checkpoint directory — to the survivors, and fences the directory behind
// a tombstone as soon as one of them holds part of it: a restart from dir
// must then archive the state rather than resurrect records the fleet
// already counts elsewhere. It is the one handoff sender, run by the
// aggregator for a dead member and by a draining node for itself; the two
// differ only in when they run it again. The error joins everything that
// went wrong — an unusable directory, survivors that never answered, a
// tombstone that could not be written — and the Handoff says how far it got
// regardless.
func ShipDir(client *http.Client, node, dir string, survivors []Member, policy ShipPolicy) (Handoff, error) {
	st, err := checkpoint.Open(dir)
	if err != nil {
		return Handoff{}, fmt.Errorf("open checkpoint dir: %w", err)
	}
	ck, err := st.LoadLatest(nil)
	if err != nil {
		return Handoff{}, err
	}
	if ck == nil {
		return Handoff{}, fmt.Errorf("no valid checkpoint in %s", dir)
	}
	results, err := ShipCheckpointRetry(client, ck.File, survivors, policy)
	h := Handoff{Generation: ck.Gen, Answered: len(results)}
	for _, r := range results {
		h.Adopted += r.AcceptedDevices
	}
	if h.Answered == 0 {
		return h, err
	}
	h.Tombstone = &checkpoint.Tombstone{
		Node: node, Generation: ck.Gen, UnixNano: time.Now().UnixNano(),
		Incarnation: ck.Snap.Fence.Incarnation, Epoch: ck.Snap.Fence.Epoch,
	}
	if werr := checkpoint.WriteTombstone(dir, *h.Tombstone); werr != nil {
		err = errors.Join(err, fmt.Errorf("tombstone write failed: %w", werr))
	}
	return h, err
}

// ShipCheckpointRetry delivers checkpoint-file bytes (the exact atomic
// fsync-rename format, CRC and all) to every survivor's admin /transfer
// endpoint. The same file goes to every survivor: each receiver keeps only
// the devices it owns under its current ring, so nothing is stranded and no
// device lands twice. Every survivor is attempted even after a failure
// (partial delivery beats none, and re-delivery is idempotent); the
// failures come back joined into one error.
//
// A transient transport error, a 5xx, or a torn reply is retried up to
// policy.Attempts times before the survivor is given up on. Deterministic
// rejections (4xx: the file itself is bad) are not retried — the same bytes
// would bounce again.
func ShipCheckpointRetry(client *http.Client, file []byte, survivors []Member, policy ShipPolicy) ([]ingest.TransferResult, error) {
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	if policy.Attempts <= 0 {
		policy.Attempts = 1
	}
	var results []ingest.TransferResult
	var errs []error
	for _, m := range survivors {
		url := "http://" + m.Admin + "/transfer"
		bo := policy.Backoff
		var tr ingest.TransferResult
		var err error
		for attempt := 1; ; attempt++ {
			var retriable bool
			tr, retriable, err = postTransfer(client, url, file)
			if err == nil || !retriable || attempt >= policy.Attempts {
				break
			}
			if policy.OnAttempt != nil {
				policy.OnAttempt(m.ID, attempt+1, err)
			}
			time.Sleep(bo.Next())
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.ID, err))
			continue
		}
		results = append(results, tr)
	}
	return results, errors.Join(errs...)
}

// postTransfer performs one transfer attempt; retriable distinguishes
// transient failures (worth retrying with the same bytes) from
// deterministic rejections.
func postTransfer(client *http.Client, url string, file []byte) (tr ingest.TransferResult, retriable bool, err error) {
	resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(file))
	if err != nil {
		return tr, true, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tr, resp.StatusCode >= 500, fmt.Errorf("transfer status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return tr, true, fmt.Errorf("transfer reply: %w", err)
	}
	return tr, false, nil
}
