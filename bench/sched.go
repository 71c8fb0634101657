package main

import (
	"errors"
	"sync"
	"time"
)

// clock is the open-loop scheduler's time source; tests substitute a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// errGaveUp marks an operation that was never sent because the run's hard
// stop had passed; it counts as failed, so a stalled server cannot thin the
// load unnoticed.
var errGaveUp = errors.New("not sent: run passed its hard stop")

// arrival is the timing of one scheduled operation.
type arrival struct {
	due, start, end time.Time
	// late is how long after both the due time and a free worker the
	// operation actually started: the generator's own lateness, which the
	// measured latency must not be blamed on the server for.
	late time.Duration
	err  error
}

// latency is measured from when the operation was due, not from when it
// was sent, so time spent waiting behind a slow predecessor counts.
func (a arrival) latency() time.Duration { return a.end.Sub(a.due) }

// openLoop runs n operations, operation i due at start + i*interval, on a
// pool of workers. The schedule never slows down: a worker that falls
// behind starts its next operation immediately and the wait shows up in
// that operation's latency. Operations still unsent at giveUp fail with
// errGaveUp.
func openLoop(clk clock, start time.Time, interval time.Duration, n, workers int, giveUp time.Time, do func(i int) error) []arrival {
	out := make([]arrival, n)
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				a := &out[i]
				a.due = start.Add(time.Duration(i) * interval)
				free := clk.Now()
				if d := a.due.Sub(free); d > 0 {
					clk.Sleep(d)
				}
				a.start = clk.Now()
				ready := a.due
				if free.After(ready) {
					ready = free
				}
				a.late = a.start.Sub(ready)
				if a.start.After(giveUp) {
					a.err = errGaveUp
					a.end = a.start
					continue
				}
				a.err = do(i)
				a.end = clk.Now()
			}
		}()
	}
	wg.Wait()
	return out
}
