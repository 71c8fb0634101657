package ingest

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// Backoff produces capped exponential delays with jitter for reconnect
// loops. The zero value is usable (defaults below); not concurrency-safe.
//
// The jitter matters in a fleet: after a server restart every client
// reconnects at once, and synchronized retries re-create the thundering
// herd on every subsequent attempt. Multiplying each delay by a random
// factor in [0.5, 1.0) decorrelates them within a couple of rounds.
type Backoff struct {
	// Base is the first delay (default 50ms).
	Base time.Duration
	// Max caps the exponential growth (default 5s).
	Max time.Duration
	// Rand supplies jitter; nil lazily installs a per-instance seeded
	// source on first use (never the global math/rand source, whose
	// process-wide stream couples every session's jitter and defeats
	// reproducible schedules). Sessions seed it per device via
	// SessionRand; tests inject their own for determinism.
	Rand *rand.Rand

	attempt int
}

const (
	defaultBackoffBase = 50 * time.Millisecond
	defaultBackoffMax  = 5 * time.Second
)

// backoffInstances distinguishes the per-instance fallback seeds so that
// zero-value Backoffs created back-to-back still jitter independently.
var backoffInstances atomic.Uint64

// SessionRand returns a jitter source seeded from the device name
// (hash64), giving every device session a stable, reproducible backoff
// schedule that is decorrelated from every other device's.
func SessionRand(device string) *rand.Rand {
	return rand.New(rand.NewSource(int64(hash64(device)))) //nolint:gosec
}

// Next returns the delay to sleep before the upcoming attempt and advances
// the schedule.
func (b *Backoff) Next() time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = defaultBackoffBase
	}
	if max <= 0 {
		max = defaultBackoffMax
	}
	d := base << b.attempt
	if d > max || d < base { // d < base catches shift overflow
		d = max
	} else {
		b.attempt++
	}
	if b.Rand == nil {
		seed := backoffInstances.Add(1) * 0x9e3779b97f4a7c15
		b.Rand = rand.New(rand.NewSource(int64(seed))) //nolint:gosec
	}
	return time.Duration(float64(d) * (0.5 + b.Rand.Float64()/2))
}

// Reset restarts the schedule after a successful attempt.
func (b *Backoff) Reset() { b.attempt = 0 }
