package main

import (
	"context"
	"errors"
	"sync"
	"time"
)

// sample is one executed op. Times are offsets from the phase start.
type sample struct {
	op    op
	sent  time.Duration // when the dispatcher queued it; sent-op.Due is the generator's lag
	start time.Duration // when a connection picked it up
	end   time.Duration
	reply reply
	err   error
}

// latency is the op's time from when it was due, so a stall is charged to
// every request queued behind it too.
func (s sample) latency() time.Duration { return s.end - s.op.Due }

func (s sample) ms() float64 { return durMS(s.latency()) }

// openLoop sends ops on their schedule, whatever the system's state, over
// conns worker goroutines, and returns the samples in schedule order with
// the phase's start time. A backlog waits in the queue, so its wait counts
// in the latency. If ctx ends, ops not yet sent are dropped.
func openLoop(ctx context.Context, ops []op, conns int, do func(context.Context, op) (reply, error)) ([]sample, time.Time) {
	samples := make([]sample, len(ops))
	queue := make(chan int, len(ops)) // one slot per send: the dispatcher never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.start = time.Since(start)
				s.reply, s.err = do(ctx, s.op)
				s.end = time.Since(start)
			}
		}()
	}
	sent := 0
	for i, o := range ops {
		if sleep(ctx, o.Due-time.Since(start)) != nil {
			break
		}
		samples[i].op = o
		samples[i].sent = time.Since(start)
		queue <- i
		sent++
	}
	close(queue)
	wg.Wait()
	return samples[:sent], start
}

// closedLoop calls do back to back, each call due when the previous one
// ended, until span has passed or a call fails. It returns the samples in
// call order with the phase's start time.
func closedLoop(ctx context.Context, span time.Duration, do func(context.Context, int) error) ([]sample, time.Time, error) {
	var samples []sample
	start := time.Now()
	for i, due := 0, time.Duration(0); due < span; i++ {
		if err := ctx.Err(); err != nil {
			return samples, start, err
		}
		s := sample{op: op{Due: due}}
		s.sent = time.Since(start)
		s.start = s.sent
		s.err = do(ctx, i)
		s.end = time.Since(start)
		samples = append(samples, s)
		if s.err != nil {
			return samples, start, s.err
		}
		due = s.end
	}
	return samples, start, nil
}

// sleep waits d, or until ctx ends.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// failed reports whether s counts against the run, and wrong whether it
// also returned a wrong answer.
func (s sample) failed() bool { return s.err != nil }
func (s sample) wrong() bool  { return errors.Is(s.err, errWrong) }
