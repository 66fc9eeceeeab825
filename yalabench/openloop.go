package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the open loop's time source: offsets from the start of the
// measured window.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// wallClock is the real clock, started at construction.
type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// openSample is one open-loop request: when it was due, when a caller
// actually sent it, and when its answer arrived.
type openSample struct {
	due, sent, done time.Duration
	err             error
}

// latency is timed from the due time, so a stalled generator or a
// backlog charges its wait to every request it delayed.
func (s openSample) latency() time.Duration { return s.done - s.due }

// lateness is how long after its due time the generator sent it.
func (s openSample) lateness() time.Duration {
	if s.sent < s.due {
		return 0
	}
	return s.sent - s.due
}

// runOpenLoop sends request i at offsets[i] from callers goroutines.
// A free caller takes the next request in due order and waits for its
// due time; when every caller is busy past a due time, that request is
// sent late and the lateness shows in its sample.
func runOpenLoop(clk clock, offsets []time.Duration, callers int, fn func(i int) error) []openSample {
	samples := make([]openSample, len(offsets))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(offsets) {
					return
				}
				clk.sleepUntil(offsets[i])
				sent := clk.now()
				err := fn(i)
				samples[i] = openSample{due: offsets[i], sent: sent, done: clk.now(), err: err}
			}
		}()
	}
	wg.Wait()
	return samples
}
