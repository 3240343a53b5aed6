package dsm

import (
	"sync"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/wire"
)

// outbox is the node's outbound message pipeline: every protocol message
// leaves through send, which encodes it into a pooled frame of its own
// (framebuf.Get) and hands the frame to the transport at once (ownership
// transfers on Send). The message is dead the moment send returns — its
// sender keeps it on the stack or returns its shell to the free list —
// and no frame outlives the call that built it.
//
// Ordering: a destination's frames are encoded and sent under its lock,
// so the per-(sender,receiver) order the directory and install invariants
// rely on is the order of the send calls, carried the rest of the way by
// the transport's FIFO delivery. A handler that sends under a directory
// entry or page stripe puts its message on the wire before the next
// decision that lock orders.
type outbox struct {
	n    *Node
	dsts []outDest
}

// outDest is one destination's send state, guarded by mu (a leaf lock:
// nothing else is acquired under it except the transport's own internals
// inside Send and, once, the waiter table when the destination breaks).
type outDest struct {
	mu sync.Mutex
	// broken makes a send failure sticky, mirroring the TCP sender's
	// fail-stop: once a send to this destination errors, every later send
	// returns the same error without touching the transport. It is the
	// node's one record of a dead peer (Node.peerErr reads it).
	broken error
}

func newOutbox(n *Node) *outbox {
	return &outbox{n: n, dsts: make([]outDest, n.sys.cfg.Procs)}
}

// send encodes m into a frame for dst and sends it; m is the caller's
// again when send returns. The first failure breaks the destination: it
// fails the rpc waiters parked on dst (Node.peerFailed) and is returned by
// this and every later send to dst.
func (o *outbox) send(dst mem.ProcID, m *wire.Msg) error {
	n := o.n
	d := &o.dsts[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.broken != nil {
		return d.broken
	}
	buf := m.EncodeAppend(framebuf.Get())
	if dst != n.id {
		n.stats.countSent(m.Kind, len(buf))
		if n.traceOn() {
			n.emit("send", m.Kind.String(), int64(dst))
		}
	}
	// In-process delivery hands buf to the receiver, which recycles it.
	if err := n.ep.Send(int(dst), buf); err != nil {
		d.broken = err
		n.peerFailed(dst, err)
	}
	return d.broken
}
