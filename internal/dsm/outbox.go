package dsm

import (
	"sync"
	"sync/atomic"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/wire"
)

// outbox is the node's unified outbound message pipeline: every protocol
// message leaves through it. Staging a message ENCODES it, into a pooled
// frame of its own (framebuf.Get), so what waits for a flush is bytes: the
// message is dead the moment stage returns — its sender keeps it on the
// stack or returns its shell to the free list — and nothing staged can
// outlive a received frame its diffs borrowed. Senders flush at
// well-defined points: immediately for latency-critical singles (send),
// after a group of requests is staged (rpcAll), and after each message a
// shard worker processes. A flush sends a destination's frames one
// message to a frame, handing each buffer to the transport (ownership
// transfers on Send).
//
// Ordering: each destination has one queue of frames, appended to and
// flushed while its lock is held, so the per-(sender,receiver) FIFO order
// the directory and install invariants rely on is exactly the staging
// order — mixing deferred (worker) and immediate (application) sends to
// one peer can never reorder them.
//
// Every staged message must be followed by a flush its stager is
// responsible for: application-side paths flush inline (send, rpcAll),
// and shard workers flush after each message. Staging from a goroutine
// with no such flush point would strand the message.
type outbox struct {
	n    *Node
	dsts []outDest
}

// outDest is one destination's staged frames, guarded by mu (a leaf
// lock: nothing else is acquired under it except the transport's own
// internals inside Send).
type outDest struct {
	mu sync.Mutex
	// frames holds the staged messages' encodings, one pooled buffer each,
	// in staging order.
	frames [][]byte
	// count mirrors len(frames) for flushAll's lock-free skip of clean
	// destinations; it is maintained under mu, so a staged message is
	// always visible to its stager's own later flush.
	count atomic.Int32
	// broken makes a flush failure sticky, mirroring the TCP sender's
	// fail-stop: once a send to this destination errors, every later
	// flush returns the same error. This routes the failure to whoever
	// staged for the destination, not just whoever happened to flush it
	// — a shard worker's flushAll may race into the window between an
	// rpc's stage and its own flush, and without the sticky error the
	// requester would see an empty queue, return nil, and park in await
	// forever while the failure sat in the worker's noteErr.
	broken error
}

func newOutbox(n *Node) *outbox {
	return &outbox{n: n, dsts: make([]outDest, n.sys.cfg.Procs)}
}

// stage encodes m into a frame queued for dst without sending it; m is
// the caller's again when stage returns. The caller must guarantee a
// flush follows: its own send/flushDst/flushAll, or — on a shard worker —
// the flush after the message it is processing.
func (o *outbox) stage(dst mem.ProcID, m *wire.Msg) {
	d := &o.dsts[dst]
	d.mu.Lock()
	d.frames = append(d.frames, m.EncodeAppend(framebuf.Get()))
	d.count.Store(int32(len(d.frames)))
	d.mu.Unlock()
}

// send stages m and immediately flushes its destination — the
// latency-critical single-message path (requests about to block, lock
// grants). Anything staged earlier for dst leaves first, in FIFO order.
func (o *outbox) send(dst mem.ProcID, m *wire.Msg) error {
	o.stage(dst, m)
	return o.flushDst(dst)
}

// flushAll flushes every destination with staged messages. All
// destinations are attempted even after an error (other peers' traffic
// must not be stranded by one dead stream); the first error is
// returned.
func (o *outbox) flushAll() error {
	var first error
	for i := range o.dsts {
		if o.dsts[i].count.Load() == 0 {
			continue
		}
		if err := o.flushDst(mem.ProcID(i)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushDst sends everything staged for dst, a frame per message in
// staging order. The destination lock is held across the transport
// sends, so concurrent flushes cannot reorder the stream.
func (o *outbox) flushDst(dst mem.ProcID) error {
	n := o.n
	d := &o.dsts[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	frames := d.frames
	// The queue empties as it is sent: a failed send drops the messages
	// behind it (exactly like a failed Endpoint.Send always has) rather
	// than leaving them staged for an accidental resend.
	defer func() {
		clear(frames)
		d.frames = frames[:0]
		d.count.Store(0)
	}()
	remote := dst != n.id
	for i, buf := range frames {
		if d.broken != nil {
			for _, rest := range frames[i:] {
				framebuf.Put(rest)
			}
			return d.broken
		}
		if remote {
			n.stats.countSent(wire.Kind(buf[0]), len(buf))
			if n.traceOn() {
				n.emit("send", wire.Kind(buf[0]).String(), int64(dst))
			}
		}
		// Ownership of buf passes to the transport (in-process delivery
		// hands it to the receiver, which recycles it).
		if err := n.ep.Send(int(dst), buf); err != nil {
			// The first failure is sticky and propagates the peer's death to
			// the node: rpc waiters parked on this destination are failed
			// immediately — their responses can never arrive over a broken
			// stream — instead of waiting out the rpc timeout (or forever
			// without one).
			d.broken = err
			n.peerFailed(dst, err)
		}
	}
	return d.broken
}
