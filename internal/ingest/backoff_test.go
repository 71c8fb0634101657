package ingest

import (
	"fmt"
	"testing"
	"time"
)

// schedule drains n delays from a fresh Backoff seeded for device.
func schedule(device string, n int) []time.Duration {
	b := Backoff{Base: 10 * time.Millisecond, Max: time.Second, Rand: SessionRand(device)}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = b.Next()
	}
	return out
}

// TestBackoffDeterministic: a session's backoff schedule is a pure
// function of its device name — reproducible run to run — while distinct
// devices get decorrelated schedules. Regression test for the old
// behaviour where a nil Rand fell back to the global math/rand source,
// making every schedule depend on whatever else the process had drawn.
func TestBackoffDeterministic(t *testing.T) {
	a1 := schedule("u00", 8)
	a2 := schedule("u00", 8)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same device, differing schedule at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
	b := schedule("u01", 8)
	same := 0
	for i := range a1 {
		if a1[i] == b[i] {
			same++
		}
	}
	if same == len(a1) {
		t.Fatalf("devices u00 and u01 share an identical %d-step schedule", len(a1))
	}
	// The seed is bare FNV-64a of the name: u00's schedule, computed when
	// the seed still came from hash/fnv's New64a.
	const pinned = "[6.511465ms 19.360074ms 20.363567ms 58.53714ms 148.019236ms 303.14255ms]"
	if got := fmt.Sprint(schedule("u00", 6)); got != pinned {
		t.Fatalf("u00 schedule = %s, pinned %s", got, pinned)
	}
}

// TestBackoffNilRandGetsPerInstanceSource: with no injected source the
// Backoff installs its own on first use instead of touching the global
// math/rand stream, and independent instances jitter independently.
func TestBackoffNilRandGetsPerInstanceSource(t *testing.T) {
	var b1, b2 Backoff
	d1, d2 := b1.Next(), b2.Next()
	if b1.Rand == nil || b2.Rand == nil {
		t.Fatal("Next did not install a per-instance source")
	}
	if b1.Rand == b2.Rand {
		t.Fatal("instances share a jitter source")
	}
	lo, hi := 25*time.Millisecond, 50*time.Millisecond
	for _, d := range []time.Duration{d1, d2} {
		if d < lo || d > hi {
			t.Errorf("first delay %v outside jitter envelope [%v, %v]", d, lo, hi)
		}
	}
}

// TestBackoffGrowthAndCap: the exponential shape and cap survive the
// jitter-source change.
func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Rand: SessionRand("dev")}
	prevMax := time.Duration(0)
	for i := 0; i < 10; i++ {
		d := b.Next()
		if d > 80*time.Millisecond {
			t.Fatalf("delay %v exceeds cap", d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < 40*time.Millisecond {
		t.Errorf("schedule never grew near the cap: max seen %v", prevMax)
	}
	b.Reset()
	if d := b.Next(); d > 10*time.Millisecond {
		t.Errorf("post-Reset delay %v above base", d)
	}
}
