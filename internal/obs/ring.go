package obs

import (
	"sync"
	"time"
)

// TrafficSample is one interval's interconnect traffic delta: how many
// messages and wire bytes moved during the sampling interval ending at
// Unix.
type TrafficSample struct {
	Unix     int64 `json:"unix"`
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

func (a TrafficSample) sub(b TrafficSample) TrafficSample {
	return TrafficSample{Messages: a.Messages - b.Messages, Bytes: a.Bytes - b.Bytes}
}

// TrafficRing keeps the most recent traffic samples in a fixed ring:
// push cumulative totals, read back per-interval deltas, oldest first.
// Safe for concurrent use.
type TrafficRing struct {
	mu       sync.Mutex
	buf      []TrafficSample
	next     int
	filled   int
	prev     TrafficSample
	havePrev bool
}

// NewTrafficRing returns a ring holding up to capacity samples.
func NewTrafficRing(capacity int) *TrafficRing {
	if capacity <= 0 {
		capacity = 1
	}
	return &TrafficRing{buf: make([]TrafficSample, capacity)}
}

// Push records the delta between totals (a cumulative counter snapshot)
// and the previous Push, stamped with the given unix time. The first
// Push establishes the baseline and records the totals themselves (the
// delta since zero).
func (r *TrafficRing) Push(unix int64, totals TrafficSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := totals
	if r.havePrev {
		s = totals.sub(r.prev)
	}
	s.Unix = unix
	r.prev = totals
	r.havePrev = true
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.filled < len(r.buf) {
		r.filled++
	}
}

// Recent returns the retained samples, oldest first.
func (r *TrafficRing) Recent() []TrafficSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TrafficSample, 0, r.filled)
	start := r.next - r.filled
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.filled; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// SampleEvery starts a goroutine pushing totals() into the ring every
// interval. The returned stop function ends the sampler (taking one
// final sample) and waits for it to exit; it is safe to call once.
func (r *TrafficRing) SampleEvery(interval time.Duration, totals func() TrafficSample) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				r.Push(time.Now().Unix(), totals())
			case <-done:
				r.Push(time.Now().Unix(), totals())
				return
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
