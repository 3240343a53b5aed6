// Package transport defines the interconnect abstraction beneath the
// live DSM runtime (internal/dsm): a Transport connects the cluster's n
// endpoints with reliable, per-sender-FIFO, point-to-point delivery of
// opaque payloads (encoded wire.Msg frames), and accounts every message
// and byte it moves.
//
// Two implementations exist:
//
//   - internal/simnet — the default in-process interconnect (the paper's
//     §5.1 network assumptions: reliable FIFO channels, no broadcast),
//     serving all n endpoints inside one process;
//   - internal/transport/tcp — a real interconnect framing payloads over
//     length-prefixed TCP streams with one connection per peer, serving
//     one endpoint per OS process so a DSM cluster spans processes and
//     machines.
//
// The consistency protocols never see which one they run over: dsm.System
// consumes this interface only, so every engine (LI/LU/EI/EU/SC) works
// identically across transports — the cross-transport differential tests
// in internal/workload assert exactly that.
package transport

import (
	"errors"
	"net"

	"repro/internal/framebuf"
)

// Stats is a snapshot of traffic counters for the endpoints a Transport
// instance serves. Loopback (an endpoint sending to itself) is free,
// matching the paper's cost model where local operations cost nothing.
//
// Messages counts logical protocol messages; Frames counts physical
// network hops. A plain Send moves one message in one frame; a SendBatch
// of k messages moves k messages in one frame (and counts one Batch), so
// Messages-vs-Frames is exactly the saving the outbox's coalescing buys:
// each frame pays the fixed per-message network cost once.
//
// Bytes counts what crossed the wire. RawBytes equals Bytes — frames
// travel as encoded — and stays only because bench/lrcbench names the
// field; the next benchmark PR drops it.
type Stats struct {
	Messages int64
	Frames   int64
	Batches  int64
	Bytes    int64
	RawBytes int64
}

// Add accumulates other into s (for aggregating multi-instance clusters).
func (s *Stats) Add(other Stats) {
	s.Messages += other.Messages
	s.Frames += other.Frames
	s.Batches += other.Batches
	s.Bytes += other.Bytes
	s.RawBytes += other.RawBytes
}

// ErrClosed is returned by Send, and wrapped by blocked protocol
// operations, after a transport shuts down.
var ErrClosed = errors.New("transport: closed")

// Endpoint is one node's attachment to the interconnect.
type Endpoint interface {
	// ID returns the endpoint's index in [0, NumEndpoints).
	ID() int
	// Send delivers payload to endpoint dst, reliably and in FIFO order
	// with respect to other Sends (and SendBatches) from this endpoint to
	// the same destination. Sending to oneself is allowed and free. Send
	// may be called concurrently from multiple goroutines.
	//
	// Ownership of payload transfers to the transport: the caller must
	// not read or modify it after Send returns. (In-process transports
	// deliver the buffer itself to the receiver; the receiver owns what
	// Recv returns and may recycle it.)
	Send(dst int, payload []byte) error
	// Recv blocks until a payload arrives for this endpoint, returning
	// the sender's id, or until the transport closes (ok=false). Payloads
	// already delivered when the transport closes are drained first. The
	// returned payload is owned by the caller.
	Recv() (src int, payload []byte, ok bool)
}

// BatchSender is the vectored-send extension an Endpoint may implement:
// the frames together form ONE wire payload (the caller's batch-frame
// format — frames[0] is the batch header, every later element exactly
// one length-prefixed logical message), delivered to dst as a single
// physical hop: one Recv payload at the receiver, one length-prefixed
// write syscall on a real transport, one hop on the simulated one.
// Accounting: len(frames)-1 messages, one frame, one batch.
//
// Unlike Send, the frame buffers are only borrowed: the transport must
// copy or write them before returning, and the caller may reuse them
// afterwards (they are typically sub-slices of one pooled buffer).
type BatchSender interface {
	SendBatch(dst int, frames net.Buffers) error
}

// SendBatch is the default adapter over the optional BatchSender
// interface: endpoints that implement it get a true vectored single-hop
// send; for any other endpoint the frames are concatenated into one
// payload and delivered with Send (still one hop, though such a
// transport accounts it as a single message).
func SendBatch(ep Endpoint, dst int, frames net.Buffers) error {
	if bs, ok := ep.(BatchSender); ok {
		return bs.SendBatch(dst, frames)
	}
	return ep.Send(dst, Concat(frames))
}

// Concat joins a batch's frames into the one payload a receiver sees,
// for delivery paths that cannot hand the borrowed frames over as they
// are. The buffer comes from the frame free list the receiver returns
// payloads to.
func Concat(frames net.Buffers) []byte {
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	buf := framebuf.GetLen(total)[:0]
	for _, f := range frames {
		buf = append(buf, f...)
	}
	return buf
}

// Transport connects a DSM cluster's endpoints. One instance serves the
// endpoints local to this process: the in-process simnet serves all of
// them, a TCP transport serves exactly one.
type Transport interface {
	// NumEndpoints returns the cluster size.
	NumEndpoints() int
	// Local returns the ids of the endpoints this instance serves in this
	// process, in ascending order.
	Local() []int
	// Endpoint returns endpoint i's handle; i must be local.
	Endpoint(i int) Endpoint
	// Totals returns traffic counters for this instance's endpoints.
	Totals() Stats
	// Close shuts the transport down — pending and future Recvs return
	// ok=false, future Sends fail with ErrClosed — and returns any
	// teardown or connection error accumulated while it ran, so a dead
	// peer surfaces instead of vanishing. Close is idempotent; every call
	// returns the same error.
	Close() error
}
