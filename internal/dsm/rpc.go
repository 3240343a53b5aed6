package dsm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/wire"
)

// The node's message plumbing: send, its one way out, and the rpc waiter
// table — a request's waiter parks under its Seq until its response, a
// failure or a timeout takes it out. Lock order: a destination's send lock
// (outDest.mu) < waiterMu. Both are leaves otherwise: under a send lock only
// the transport's own internals and, when the destination breaks,
// peerFailed's waiter table; no waiter is delivered to under waiterMu but by
// peerFailed and shutdown, whose deliveries never block.

// outDest is one destination's send state, guarded by mu.
type outDest struct {
	mu sync.Mutex
	// broken makes a send failure sticky, mirroring the TCP sender's
	// fail-stop: once a send to this destination errors, every later send
	// returns the same error without touching the transport. It is the
	// node's one record of a dead peer (Node.peerErr reads it).
	broken error
}

// send is the node's one way out: it encodes m into a pooled frame of its
// own (framebuf.Get) and hands the frame to the transport at once
// (ownership transfers on Send). m is the caller's again when send
// returns — its sender keeps it on the stack or returns its shell to the
// free list — and no frame outlives the call that built it. The first
// failure breaks the destination: it fails the rpc waiters parked on dst
// (peerFailed) and is returned by this and every later send to dst.
//
// Ordering: a destination's frames are encoded and sent under its lock,
// so the per-(sender,receiver) order the directory and install invariants
// rely on is the order of the send calls, carried the rest of the way by
// the transport's FIFO delivery. A handler that sends under a directory
// entry or page stripe puts its message on the wire before the next
// decision that lock orders.
func (n *Node) send(dst mem.ProcID, m *wire.Msg) error {
	d := &n.dsts[dst]
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

// waiterTable is a node's parked rpcs, by Seq, and the waiters it recycles
// (register takes, await returns), all guarded by waiterMu.
type waiterTable struct {
	seqCtr      atomic.Uint64
	waiterMu    sync.Mutex
	waiters     map[uint64]*rpcWaiter
	freeWaiters []*rpcWaiter
}

// rpcWaiter is one parked rpc: its response channel (buffered, so a
// delivery never blocks) and the destination the request went to, so a
// send failure to that destination can fail exactly the waiters parked
// on it. Whoever takes a waiter out of Node.waiters delivers to it exactly
// once — a response, or nil for a failure (shutdown, dst's death, a
// rejected response) — and await recycles it through Node.freeWaiters once
// it has received that delivery; a waiter given up on is left to the
// garbage collector.
type rpcWaiter struct {
	ch   chan *wire.Msg
	dst  mem.ProcID
	want wire.Kind // the response kind the request takes
}

// freedWaiter marks a waiter on the free list (in its dst): releasing it
// again or delivering to it panics instead of corrupting its next rpc.
const freedWaiter = mem.ProcID(-1 << 31)

func (n *Node) nextSeq() uint64 { return n.seqCtr.Add(1) }

// register parks a waiter for the response to a request of kind req to dst.
func (n *Node) register(seq uint64, dst mem.ProcID, req wire.Kind) *rpcWaiter {
	n.waiterMu.Lock()
	var w *rpcWaiter
	if last := len(n.freeWaiters) - 1; last >= 0 {
		w, n.freeWaiters = n.freeWaiters[last], n.freeWaiters[:last]
	} else {
		w = &rpcWaiter{ch: make(chan *wire.Msg, 1)}
	}
	w.dst, w.want = dst, req+1 // every response kind follows its request's
	if req == wire.KLockReq {
		w.want = wire.KLockGrant // from the holder, past the manager's forward
	}
	n.waiters[seq] = w
	n.waiterMu.Unlock()
	return w
}

// deliver hands a waiter taken out of Node.waiters its one delivery.
func (w *rpcWaiter) deliver(m *wire.Msg) {
	if w.dst == freedWaiter {
		panic("dsm: delivery to a released rpc waiter")
	}
	w.ch <- m
}

// takeWaiter takes seq's waiter out of Node.waiters — to deliver to it, or
// because its request failed to leave or its wait gave up — or returns nil
// when it is not there: someone else took it, and its delivery is in the
// channel or instants away, or nothing waits on seq.
func (n *Node) takeWaiter(seq uint64) *rpcWaiter {
	n.waiterMu.Lock()
	w := n.waiters[seq]
	delete(n.waiters, seq)
	n.waiterMu.Unlock()
	return w
}

// failWaiters fails every parked waiter whose request went to dst, or
// every one when dst is -1.
func (n *Node) failWaiters(dst mem.ProcID) {
	n.waiterMu.Lock()
	for seq, w := range n.waiters {
		if dst < 0 || w.dst == dst {
			delete(n.waiters, seq)
			w.deliver(nil)
		}
	}
	n.waiterMu.Unlock()
}

// freeWaiter recycles a waiter that has received its delivery.
func (n *Node) freeWaiter(w *rpcWaiter) {
	if w.dst == freedWaiter {
		panic("dsm: rpc waiter released twice")
	}
	w.dst = freedWaiter
	n.waiterMu.Lock()
	n.freeWaiters = append(n.freeWaiters, w)
	n.waiterMu.Unlock()
}

// await blocks for the response registered under seq, honoring the
// configured RPCTimeout. A nil delivery means the waiter was failed: by
// shutdown (ErrClosed), by dst's death (the recorded cause), or by the
// engine refusing the response (answerWaiter). A wait that gives up — its
// timeout elapsed, or the node stopped on another's — stops the node
// (fail) and returns the timeout it stopped on, which wraps ErrRPCTimeout,
// never ErrClosed, so callers and tests can tell a hung peer from a clean
// teardown.
func (n *Node) await(seq uint64, w *rpcWaiter) (*wire.Msg, error) {
	dst := w.dst
	m, _, gaveUp := n.recvTimed(w.ch)
	if gaveUp {
		err := n.fail(fmt.Errorf("dsm: node %d: rpc seq %d to node %d: no response within %v: %w",
			n.id, seq, dst, n.sys.cfg.RPCTimeout, ErrRPCTimeout))
		if n.takeWaiter(seq) != nil {
			return nil, err
		}
		// The response (or a failure) won the race.
		m = <-w.ch
	}
	n.freeWaiter(w)
	if m == nil {
		if cause := n.peerErr(dst); cause != nil {
			return nil, fmt.Errorf("dsm: node %d: rpc seq %d to node %d: peer unreachable: %w",
				n.id, seq, dst, cause)
		}
		select {
		case <-n.closedCh:
			return nil, fmt.Errorf("dsm: node %d: awaiting seq %d: %w", n.id, seq, ErrClosed)
		default:
			// answerWaiter: the engine refused the response and recorded why.
			return nil, fmt.Errorf("dsm: node %d: rpc seq %d to node %d: response refused", n.id, seq, dst)
		}
	}
	return m, nil
}

// fail stops the node on its first rpc timeout and returns that timeout,
// whatever err a later caller brings: a node that ran on past a response
// it gave up on would act on what it never received. It fails stop, the
// model peerFailed follows for a broken stream: every parked wait gives up
// at once (recvTimed), every later call fails (enter), and every frame
// that arrives from then on is dropped (dispatchLoop), so nothing lands on
// the node and no grant leaves it (sendGrant). Safe from any goroutine.
func (n *Node) fail(err error) error {
	if n.failure.CompareAndSwap(nil, &err) {
		close(n.stopped)
	}
	return *n.failure.Load()
}

// rpcTimers recycles the RPCTimeout timers, one per parked receive
// otherwise. go.mod's language version gives timers the Go 1.23
// semantics: nothing is delivered after Stop, so a recycled timer cannot
// fire a stale tick into its next user.
var rpcTimers sync.Pool

// recvTimed receives from ch, giving up after the configured RPCTimeout
// (never, when it is zero) or when the node stops; gaveUp reports that it
// gave up. A message already buffered is taken without arming a timer.
func (n *Node) recvTimed(ch chan *wire.Msg) (m *wire.Msg, ok, gaveUp bool) {
	d := n.sys.cfg.RPCTimeout
	if d <= 0 {
		m, ok = <-ch
		return m, ok, false
	}
	select {
	case m, ok = <-ch:
		return m, ok, false
	default:
	}
	t, _ := rpcTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	select {
	case m, ok = <-ch:
	case <-t.C:
		gaveUp = true
	case <-n.stopped:
		gaveUp = true
	}
	t.Stop()
	rpcTimers.Put(t)
	return m, ok, gaveUp
}

// peerFailed fails every waiter parked on dst once send found its stream
// broken (called by that send, under dst's lock): the paper's fail-stop
// model, propagated — a node whose stream to a peer broke will never get
// its responses, so its parked rpcs learn immediately instead of waiting
// out the timeout. Shutdown errors are not
// peer deaths (every stream "fails" at Close).
func (n *Node) peerFailed(dst mem.ProcID, cause error) {
	if dst == n.id || errors.Is(cause, ErrClosed) {
		return
	}
	n.failWaiters(dst)
	n.noteErr("peer liveness", fmt.Errorf("node %d unreachable: %v", dst, cause))
}

// peerErr returns the cause dst's stream broke with — send's sticky
// error — or nil while dst is alive (or its stream only closed).
func (n *Node) peerErr(dst mem.ProcID) error {
	d := &n.dsts[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	if dst == n.id || errors.Is(d.broken, ErrClosed) {
		return nil
	}
	return d.broken
}

// answerWaiter wakes the waiter of a response its engine intercepted with
// the response once installed. Over one the engine rejected (the cause is
// already in noteErr) it fails the waiter, so that its await returns an
// error: failing rather than stranding it keeps the application live, so
// the run can reach Close and surface the cause. A missing waiter is fine —
// the rejected response may not have matched any request to begin with.
func (n *Node) answerWaiter(m *wire.Msg, installed bool) {
	if installed {
		n.deliverResponse(m)
	} else if w := n.takeWaiter(m.Seq); w != nil {
		w.deliver(nil)
	}
}

// rpc sends m to dst and blocks for the response with the same Seq,
// which the caller holds from then on (wire.Msg.Release when done with
// it): a group of one, so that rpcAll is the one send and await path. m
// is the caller's again as soon as it is sent. Any number of goroutines
// may have rpcs outstanding concurrently. A failed send surfaces to the
// requester directly.
func (n *Node) rpc(dst mem.ProcID, m *wire.Msg) (*wire.Msg, error) {
	req := [1]outMsg{{dst: dst, m: *m}}
	var resp [1]*wire.Msg
	got, err := n.rpcAll(req[:], resp[:0])
	if err != nil {
		return nil, err
	}
	return got[0], nil
}

// outMsg is one request of a grouped send: the message by value, so a
// group built in a local array never reaches the heap, and its destination.
// Nothing rpcAll reads out of a group leaks, so neither do the lists a
// request's slices point to (a miss's wants, a flush's diff record).
type outMsg struct {
	dst mem.ProcID
	m   wire.Msg
}

// rpcAll sends a group of requests, registering each one's waiter before
// its send, then blocks for all responses, which it appends to resps in
// request order (the caller holds them). A request whose send fails is
// withdrawn, and the first error is returned after the other requests'
// responses arrived and were released, so no response is ever orphaned.
// With metrics configured, each awaited request's wait, from the group's
// first send to its response, is one rpcHist observation.
func (n *Node) rpcAll(reqs []outMsg, resps []*wire.Msg) ([]*wire.Msg, error) {
	var start time.Time
	if n.rpcHist != nil {
		start = time.Now()
	}
	// The parked waiters, in request order, nil for a request that failed
	// to leave. Kept apart from reqs: a waiter read out of a request would
	// make everything the request points to escape with it.
	var waiterBuf [32]*rpcWaiter
	waiters := waiterBuf[:0]
	var firstErr error
	for i := range reqs {
		r := &reqs[i]
		w := n.register(r.m.Seq, r.dst, r.m.Kind)
		if err := n.send(r.dst, &r.m); err != nil {
			n.takeWaiter(r.m.Seq)
			w = nil
			if firstErr == nil {
				firstErr = err
			}
		}
		waiters = append(waiters, w)
	}
	got := len(resps)
	for i := range reqs {
		if waiters[i] == nil {
			continue
		}
		m, err := n.await(reqs[i].m.Seq, waiters[i])
		if h := n.rpcHist; h != nil {
			h.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resps = append(resps, m)
	}
	if firstErr != nil {
		for _, m := range resps[got:] {
			m.Release()
		}
		return resps[:got], firstErr
	}
	return resps, nil
}

// deliverResponse hands a response message to the requester parked in
// rpc, which holds a reference to it from then on — next to the caller's
// own — and releases it once it has consumed the response (a caller that
// ignores its responses may leave that to the garbage collector).
// Engines that intercept their responses in handle (a grant installs on
// its home's worker, in the order the home sent it) call this after
// processing. A response nobody waits for is a protocol error surfaced
// through System.Close — unless the node is shutting down or has stopped,
// when a wait may have given up on it.
func (n *Node) deliverResponse(m *wire.Msg) {
	switch w := n.takeWaiter(m.Seq); {
	case w != nil && w.want != m.Kind:
		// A waiter is found by sequence number alone: a response of another
		// kind would wake it over a page never installed, an update never
		// landed. Once delivered to, the waiter is its rpc's again.
		n.noteErr("response routing", fmt.Errorf("%v answers seq %d, which awaits %v", m.Kind, m.Seq, w.want))
		w.deliver(nil)
	case w != nil:
		m.Retain()
		w.deliver(m)
	default:
		select {
		case <-n.closedCh:
		case <-n.stopped:
		default:
			n.noteErr("response routing", fmt.Errorf("unexpected response seq %d kind %v", m.Seq, m.Kind))
		}
	}
}
