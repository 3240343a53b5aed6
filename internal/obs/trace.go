package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one recorded protocol event: a timestamp relative to the
// tracer's start, the node it happened on, a category/name pair and one
// integer argument (a lock id, a message seq, a byte count — whatever
// the site records).
type Event struct {
	NS   int64  // nanoseconds since the tracer started
	Node int32  // processor id (Chrome renders it as the pid lane)
	Cat  string // e.g. "sync", "recv", "send", "place"
	Name string // e.g. "cs-enter", "lockgrant", "frame"
	Arg  int64
}

// Tracer records protocol events into a bounded ring. Emit is cheap
// when disabled (one atomic load) and lock-plus-copy when enabled; the
// ring keeps the most recent events, counting what it overwrote. A nil
// *Tracer is inert: both Emit and Enabled are safe on it.
type Tracer struct {
	enabled atomic.Bool
	start   time.Time

	mu      sync.Mutex
	buf     []Event
	next    int
	filled  int
	dropped int64
}

// NewTracer returns an enabled tracer retaining up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1
	}
	t := &Tracer{start: time.Now(), buf: make([]Event, capacity)}
	t.enabled.Store(true)
	return t
}

// SetEnabled turns event recording on or off.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Enabled reports whether Emit currently records.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Emit records one event (dropping the oldest when the ring is full).
func (t *Tracer) Emit(node int32, cat, name string, arg int64) {
	if t == nil || !t.enabled.Load() {
		return
	}
	e := Event{NS: int64(time.Since(t.start)), Node: node, Cat: cat, Name: name, Arg: arg}
	t.mu.Lock()
	if t.filled == len(t.buf) {
		t.dropped++
	} else {
		t.filled++
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.filled)
	start := t.next - t.filled
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.filled; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Dropped returns how many events were overwritten after the ring
// filled.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// chromeEvent is the trace_event JSON shape chrome://tracing and
// Perfetto load: instant events ("ph":"i") on a per-node pid lane,
// timestamps in microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int32          `json:"pid"`
	TID   int32          `json:"tid"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeJSON dumps the retained events as a Chrome trace_event
// JSON object ({"traceEvents":[...]}), loadable in chrome://tracing or
// Perfetto.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	events := t.Events()
	out := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Dropped         int64         `json:"droppedEventCount,omitempty"`
	}{DisplayTimeUnit: "ms", Dropped: t.Dropped()}
	out.TraceEvents = make([]chromeEvent, len(events))
	for i, e := range events {
		out.TraceEvents[i] = chromeEvent{
			Name:  e.Name,
			Cat:   e.Cat,
			Phase: "i",
			TS:    float64(e.NS) / 1e3,
			PID:   e.Node,
			TID:   e.Node,
			Scope: "t",
			Args:  map[string]any{"arg": e.Arg},
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
