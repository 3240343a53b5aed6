// Package simnet provides the simulated in-process interconnect for the
// live DSM runtime — the default transport.Transport implementation:
// reliable, FIFO, point-to-point message channels between n endpoints
// (the paper's §5.1 network assumptions — no broadcast or multicast),
// with per-endpoint message and byte accounting. All n endpoints are
// local to the process; internal/transport/tcp is the cross-process
// counterpart.
package simnet

import (
	"fmt"
	stdnet "net"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// Stats is a snapshot of traffic counters.
type Stats = transport.Stats

// ErrClosed is returned by Send after the network is closed.
var ErrClosed = transport.ErrClosed

// frame is one message in flight.
type frame struct {
	src     int
	payload []byte
}

// Network connects n endpoints with reliable FIFO delivery. It
// implements transport.Transport, serving every endpoint in-process.
type Network struct {
	n      int
	queues []chan frame

	msgs    atomic.Int64
	frames  atomic.Int64
	batches atomic.Int64
	bytes   atomic.Int64
	// per-endpoint sent counters
	sentMsgs    []atomic.Int64
	sentFrames  []atomic.Int64
	sentBatches []atomic.Int64
	sentBytes   []atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
}

// Option configures a Network.
type Option func(*Network)

// WithQueueDepth is reserved for tests that want tiny queues; depth must
// be positive.
func WithQueueDepth(depth int) Option {
	return func(n *Network) {
		for i := range n.queues {
			n.queues[i] = make(chan frame, depth)
		}
	}
}

// New creates a network of n endpoints.
func New(n int, opts ...Option) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: endpoint count %d must be positive", n))
	}
	net := &Network{
		n:           n,
		queues:      make([]chan frame, n),
		sentMsgs:    make([]atomic.Int64, n),
		sentFrames:  make([]atomic.Int64, n),
		sentBatches: make([]atomic.Int64, n),
		sentBytes:   make([]atomic.Int64, n),
		closed:      make(chan struct{}),
	}
	for i := range net.queues {
		net.queues[i] = make(chan frame, 4096)
	}
	for _, o := range opts {
		o(net)
	}
	return net
}

// NumEndpoints returns the endpoint count.
func (net *Network) NumEndpoints() int { return net.n }

// Local returns every endpoint id: the whole cluster lives in-process.
func (net *Network) Local() []int {
	ids := make([]int, net.n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Endpoint returns endpoint i's handle.
func (net *Network) Endpoint(i int) transport.Endpoint {
	if i < 0 || i >= net.n {
		panic(fmt.Sprintf("simnet: endpoint %d outside [0,%d)", i, net.n))
	}
	return &Endpoint{net: net, id: i}
}

// Close shuts the network down; pending and future Recv calls return
// ok=false, future Sends fail. The in-process network has no teardown
// failure modes, so the error is always nil.
func (net *Network) Close() error {
	net.closeOnce.Do(func() { close(net.closed) })
	return nil
}

// Totals returns the global traffic counters.
func (net *Network) Totals() Stats {
	bytes := net.bytes.Load()
	return Stats{
		Messages: net.msgs.Load(),
		Frames:   net.frames.Load(),
		Batches:  net.batches.Load(),
		Bytes:    bytes,
		RawBytes: bytes,
	}
}

// SentBy returns endpoint i's send counters.
func (net *Network) SentBy(i int) Stats {
	bytes := net.sentBytes[i].Load()
	return Stats{
		Messages: net.sentMsgs[i].Load(),
		Frames:   net.sentFrames[i].Load(),
		Batches:  net.sentBatches[i].Load(),
		Bytes:    bytes,
		RawBytes: bytes,
	}
}

// Endpoint is one node's attachment to the network.
type Endpoint struct {
	net *Network
	id  int
}

// ID returns the endpoint's index.
func (e *Endpoint) ID() int { return e.id }

// Send delivers payload to dst, reliably and in FIFO order with respect to
// other sends from this endpoint to the same destination. Sending to
// oneself is allowed (loopback counts no traffic — local operations are
// free in the paper's cost model). Ownership of payload transfers: the
// buffer itself is enqueued for the receiver, zero-copy.
func (e *Endpoint) Send(dst int, payload []byte) error {
	if dst < 0 || dst >= e.net.n {
		return fmt.Errorf("simnet: destination %d outside [0,%d)", dst, e.net.n)
	}
	select {
	case <-e.net.closed:
		return ErrClosed
	default:
	}
	if dst != e.id {
		e.net.msgs.Add(1)
		e.net.frames.Add(1)
		e.net.bytes.Add(int64(len(payload)))
		e.net.sentMsgs[e.id].Add(1)
		e.net.sentFrames[e.id].Add(1)
		e.net.sentBytes[e.id].Add(int64(len(payload)))
	}
	select {
	case e.net.queues[dst] <- frame{src: e.id, payload: payload}:
		return nil
	case <-e.net.closed:
		return ErrClosed
	}
}

// SendBatch delivers a batch — frames[0] the caller's batch header, each
// later element one logical message — to dst as ONE network hop: the
// concatenation arrives as a single Recv payload, and the traffic
// counters record len(frames)-1 messages in one frame (the frame buffers
// are borrowed; the delivered payload is a copy, in a buffer from the
// free list the receiver returns it to).
func (e *Endpoint) SendBatch(dst int, frames stdnet.Buffers) error {
	if dst < 0 || dst >= e.net.n {
		return fmt.Errorf("simnet: destination %d outside [0,%d)", dst, e.net.n)
	}
	if len(frames) < 2 {
		return fmt.Errorf("simnet: batch of %d buffers (need header plus messages)", len(frames))
	}
	select {
	case <-e.net.closed:
		return ErrClosed
	default:
	}
	payload := transport.Concat(frames)
	total := len(payload)
	if dst != e.id {
		msgs := int64(len(frames) - 1)
		e.net.msgs.Add(msgs)
		e.net.frames.Add(1)
		e.net.batches.Add(1)
		e.net.bytes.Add(int64(total))
		e.net.sentMsgs[e.id].Add(msgs)
		e.net.sentFrames[e.id].Add(1)
		e.net.sentBatches[e.id].Add(1)
		e.net.sentBytes[e.id].Add(int64(total))
	}
	select {
	case e.net.queues[dst] <- frame{src: e.id, payload: payload}:
		return nil
	case <-e.net.closed:
		return ErrClosed
	}
}

var _ transport.BatchSender = (*Endpoint)(nil)

// Recv blocks until a payload arrives for this endpoint or the network
// closes (ok=false).
func (e *Endpoint) Recv() (src int, payload []byte, ok bool) {
	select {
	case f := <-e.net.queues[e.id]:
		return f.src, f.payload, true
	case <-e.net.closed:
		// Drain anything already queued before reporting closure, so
		// shutdown does not lose frames racing with Close.
		select {
		case f := <-e.net.queues[e.id]:
			return f.src, f.payload, true
		default:
			return 0, nil, false
		}
	}
}

// TryRecv returns immediately with ok=false if nothing is queued.
func (e *Endpoint) TryRecv() (src int, payload []byte, ok bool) {
	select {
	case f := <-e.net.queues[e.id]:
		return f.src, f.payload, true
	default:
		return 0, nil, false
	}
}
