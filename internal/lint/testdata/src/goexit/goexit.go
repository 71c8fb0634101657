// Fixture for the goexit analyzer, type-checked under the in-scope import
// path netenergy/internal/ingest: every `go` statement must show a
// recognized shutdown tie, be a run-to-completion helper, or carry an
// explicit suppression.
package ingest

import (
	"context"
	"sync"
)

type server struct {
	stop chan struct{}
	ch   chan int
	wg   sync.WaitGroup
}

// leak loops forever with nothing tying it to shutdown.
func (s *server) leak() {
	go func() { // want "goroutine loops without a recognized shutdown tie"
		for {
			process()
		}
	}()
}

// worker ranges over a channel: it terminates when the producer closes it.
func (s *server) worker() {
	go func() {
		for v := range s.ch {
			use(v)
		}
	}()
}

// stopLoop selects on a shutdown-named channel.
func (s *server) stopLoop() {
	go func() {
		for {
			select {
			case <-s.stop:
				return
			case v := <-s.ch:
				use(v)
			}
		}
	}()
}

// ctxLoop selects on ctx.Done().
func (s *server) ctxLoop(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-s.ch:
				use(v)
			}
		}
	}()
}

// handle is the handleConn shape: the WaitGroup tie lives inside a deferred
// closure, which runs in this goroutine and therefore counts.
func (s *server) handle() {
	s.wg.Add(1)
	go func() {
		defer func() {
			cleanup()
			s.wg.Done()
		}()
		for {
			if !step() {
				return
			}
		}
	}()
}

// mailbox is the shard-worker shape: the loop ends on a stop message the
// analyzer cannot see, but the goroutine closes a done channel on the way
// out, which is what the drain waits on.
func (s *server) mailbox() {
	go func() {
		defer close(s.stop)
		for {
			v := <-s.ch
			if v == 0 {
				return
			}
			use(v)
		}
	}()
}

// notify is loop-free: it runs to completion when its statements finish.
func (s *server) notify() {
	go func() {
		s.ch <- 1
	}()
}

// spin launches a named same-package function; the analyzer resolves its
// body one level deep and finds an untied loop.
func (s *server) spin() {
	go s.spinLoop() // want "goroutine spinLoop loops without a recognized shutdown tie"
}

func (s *server) spinLoop() {
	for {
		process()
	}
}

// external launches through a function value, which the analyzer cannot
// see into.
func (s *server) external(fn func()) {
	go fn() // want "goroutine runs fn, whose body repolint cannot see"
}

// suppressed is the same unanalyzable launch with a justified escape hatch.
func (s *server) suppressed(fn func()) {
	//repolint:allow goexit — fixture: the callback runs to completion by contract
	go fn()
}

func process()   {}
func use(_ int)  {}
func step() bool { return false }
func cleanup()   {}
