package dsm

import (
	"encoding/binary"
	stdnet "net"
	"sync"
	"sync/atomic"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/transport"
	"repro/internal/wire"
)

// outbox is the node's unified outbound message pipeline: every protocol
// message leaves through it. Staging a message ENCODES it, into the
// destination's pooled frame, so what waits for a flush is bytes: the
// message is dead the moment stage returns — its sender keeps it on the
// stack or returns its shell to the free list — and nothing staged can
// outlive a received frame its diffs borrowed. Senders flush at
// well-defined points — immediately for latency-critical singles (send),
// after a group of requests is staged (rpcAll), or at the end of a
// shard-worker dispatch burst (the worker's queue-empty transition) — and
// a flush sends everything staged for one peer as a single frame: one
// physical hop, one fixed network cost, paid once instead of per message.
//
// Replies a burst of requests from one peer produces are keyed to that
// peer (the request-burst collector): the dispatch loop counts each
// worker-bound frame against its source, workers count them back off as
// they complete, and the drain-point flushAll skips a peer while its
// count is up; the completion that takes it to zero performs the flush.
// A k-message request burst's replies therefore leave as one
// deterministic frame regardless of how the shard workers interleaved,
// instead of splitting on whichever worker drained first.
//
// Ordering: each destination has one frame, appended to and flushed while
// its lock is held, so the per-(sender,receiver) FIFO order the directory
// and install invariants rely on is exactly the staging order — mixing
// deferred (worker) and immediate (application) sends to one peer can
// never reorder them, it only decides how many frames they share.
//
// The frame comes from framebuf.Get (steady-state the payload bytes are
// never reallocated). A lone message is staged as its plain encoding and
// handed to the transport as is — ownership transfers on Send. A second
// message turns the frame into a batch body (wire.AppendBatched
// sub-frames; the first gets its length prefix then), which a flush lends
// to SendBatch as vectored sub-slices behind a header kept beside it, and
// recycles after the transport has written or copied it.
//
// Every staged message must be followed by a flush its stager is
// responsible for: application-side paths flush inline (send, rpcAll),
// and shard workers flush at their drain point (collector-gated
// destinations hand that responsibility to the completion that zeroes
// the gate). Staging from a goroutine with no such flush point would
// strand the message.
type outbox struct {
	n    *Node
	dsts []outDest
}

// outDest is one destination's staged frame plus flush scratch, all
// guarded by mu (a leaf lock: nothing else is acquired under it except
// the transport's own internals inside Send).
type outDest struct {
	mu sync.Mutex
	// buf holds the staged messages' bytes: one plain encoding, or two and
	// more length-prefixed sub-frames; ends[i] is where the i-th stops.
	buf  []byte
	ends []int
	// count mirrors len(ends) for flushAll's lock-free skip of clean
	// destinations; it is maintained under mu, so a staged message is
	// always visible to its stager's own later flush.
	count atomic.Int32
	// inflight is the collector gate: frames from THIS peer currently
	// dispatched to shard workers and not yet processed. While it is
	// up, drain-point flushes skip the peer (its burst's replies are
	// still accumulating); the completion that drops it to zero
	// flushes. Maintained outside mu — the dispatch loop increments
	// before enqueueing, workers decrement after processing.
	inflight atomic.Int32
	// broken makes a flush failure sticky, mirroring the TCP sender's
	// fail-stop: once a send to this destination errors, every later
	// flush returns the same error. This routes the failure to whoever
	// staged for the destination, not just whoever happened to flush it
	// — a shard worker's drain-point flushAll may race into the window
	// between an rpc's stage and its own flush, and without the sticky
	// error the requester would see an empty queue, return nil, and
	// park in await forever while the failure sat in the worker's
	// noteErr.
	broken error
	// flush scratch, reused across flushes: the batch header and the
	// vectored frame list. After a flush returns, bufs may hold stale
	// references into a recycled buffer; the next flush overwrites them
	// before any use.
	hdr  [1 + binary.MaxVarintLen32]byte
	bufs stdnet.Buffers
}

func newOutbox(n *Node) *outbox {
	return &outbox{n: n, dsts: make([]outDest, n.sys.cfg.Procs)}
}

// stage encodes m into dst's frame without sending it; m is the caller's
// again when stage returns. The caller must guarantee a flush follows:
// its own send/flushDst/flushAll, or — on a shard worker — the worker's
// end-of-dispatch flush point.
func (o *outbox) stage(dst mem.ProcID, m *wire.Msg) {
	d := &o.dsts[dst]
	d.mu.Lock()
	switch len(d.ends) {
	case 0:
		d.buf = m.EncodeAppend(framebuf.Get())
	case 1:
		// No longer alone: the plain first encoding becomes a sub-frame.
		d.buf = wire.PrefixLength(d.buf)
		d.ends[0] = len(d.buf)
		fallthrough
	default:
		d.buf, _ = wire.AppendBatched(d.buf, m)
	}
	d.ends = append(d.ends, len(d.buf))
	d.count.Store(int32(len(d.ends)))
	d.mu.Unlock()
}

// send stages m and immediately flushes its destination — the
// latency-critical single-message path (requests about to block, lock
// grants). Anything staged earlier for dst rides the same flush, ahead
// of m in FIFO order.
func (o *outbox) send(dst mem.ProcID, m *wire.Msg) error {
	o.stage(dst, m)
	return o.flushDst(dst)
}

// noteDispatched counts a worker-bound frame from src against the
// collector gate (see outDest.inflight). The dispatch loop calls it
// before enqueueing, so the count can never go negative.
func (o *outbox) noteDispatched(src mem.ProcID) {
	o.dsts[src].inflight.Add(1)
}

// noteCompleted counts a processed frame back off src's collector gate;
// the completion that zeroes the gate flushes the burst's accumulated
// replies as one frame. Errors are recorded like any drain-point flush.
func (o *outbox) noteCompleted(src mem.ProcID) {
	if o.dsts[src].inflight.Add(-1) == 0 {
		o.n.noteErr("outbox flush", o.flushDst(src))
	}
}

// flushAll flushes every destination with staged messages. All
// destinations are attempted even after an error (other peers' traffic
// must not be stranded by one dead stream); the first error is
// returned. Collector-gated destinations are skipped: their peer's
// request burst is still being processed, and the completion that
// zeroes the gate will flush them (inflight > 0 always implies such a
// completion is pending).
func (o *outbox) flushAll() error {
	var first error
	for i := range o.dsts {
		if o.dsts[i].count.Load() == 0 {
			continue
		}
		if o.dsts[i].inflight.Load() > 0 {
			continue
		}
		if err := o.flushDst(mem.ProcID(i)); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// flushDst sends everything staged for dst: the plain frame of a single
// message, one batch frame for several. The destination lock is held
// across the transport send, so concurrent flushes cannot reorder the
// stream.
func (o *outbox) flushDst(dst mem.ProcID) error {
	n := o.n
	d := &o.dsts[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, ends := d.buf, d.ends
	// The frame empties before the send: a failed send drops its
	// messages (exactly like a failed Endpoint.Send always has) rather
	// than leaving them staged for an accidental resend.
	d.buf, d.ends = nil, ends[:0]
	d.count.Store(0)
	if d.broken != nil {
		framebuf.Put(buf)
		return d.broken
	}
	if len(ends) == 0 {
		return nil
	}
	remote := dst != n.id
	if remote && n.traceOn() {
		n.emit("send", "frame", int64(len(ends)))
	}
	// poison records a send failure and makes it sticky (see broken).
	// The first failure also propagates the peer's death to the node:
	// rpc waiters parked on this destination are failed immediately —
	// their responses can never arrive over a broken stream — instead
	// of waiting out the rpc timeout (or forever without one).
	poison := func(err error) error {
		if err != nil {
			d.broken = err
			n.peerFailed(dst, err)
		}
		return err
	}

	if len(ends) == 1 {
		if remote {
			n.stats.countSent(wire.Kind(buf[0]), len(buf))
			n.stats.sentFrames.Add(1)
		}
		// Ownership of buf passes to the transport (in-process delivery
		// hands it to the receiver, which recycles it).
		return poison(n.ep.Send(int(dst), buf))
	}

	// Batch frame: the header, then every staged sub-frame, lent to the
	// transport as one vectored send — frames[0] the header, each later
	// element one length-prefixed message, so the transport accounts the
	// batch without parsing it.
	frames := append(d.bufs[:0], wire.AppendBatchHeader(d.hdr[:0], len(ends)))
	prev := 0
	for _, e := range ends {
		frames = append(frames, buf[prev:e])
		if remote {
			size, k := binary.Uvarint(buf[prev:e])
			n.stats.countSent(wire.Kind(buf[prev+k]), int(size))
		}
		prev = e
	}
	d.bufs = frames
	if remote {
		n.stats.sentFrames.Add(1)
		n.stats.sentBatches.Add(1)
	}
	err := transport.SendBatch(n.ep, int(dst), frames)
	// The batch body was only lent (the transport wrote or copied it);
	// recycle it.
	framebuf.Put(buf)
	return poison(err)
}
