package dsm

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/wire"
)

// The synchronization machinery below is protocol-independent: locks
// migrate through a static manager to their last holder (§4.2's lock
// transfer), barriers rendezvous through a master. What the messages
// carry — write notices, clocks, piggybacked diffs, or nothing at all —
// is the engine's business, hooked in at the engine payload methods.
//
// Acquire, Release and Barrier are the node's application goroutine's:
// a node is one processor to the protocol, as in the paper, and presents
// one identity to it. Handler workers answer peers' lock requests and
// forwards concurrently, under lockMu.

// --- the consistency payload ---
//
// Every lock request, forward and grant and every barrier arrival and exit
// carries the engine's consistency payload in the message's flat
// VC/Intervals/Diffs, which the engine hooks write and read as they are:
// no tag says which protocol wrote them. A cluster's Systems agree on the
// protocol and the rest of the cluster-wide configuration once, when a
// System that does not host the master joins (join.go), and dispatch holds
// each received payload to the cluster (checkPayload).

// checkPayload holds a received message's consistency payload to what the
// runtime sends: no message carries a wire.Section, which the codec still
// reads, and a synchronization message's clock has one entry per
// processor. A message that breaks either is a forgery, a corruption or a
// misconfigured peer, refused whole like a forged sender.
func (n *Node) checkPayload(m *wire.Msg, src mem.ProcID) error {
	if m.Sections != nil {
		return fmt.Errorf("%v from %d refused: it carries a section, which no runtime message does", m.Kind, src)
	}
	switch m.Kind {
	case wire.KLockReq, wire.KLockFwd, wire.KLockGrant, wire.KBarrierArrive, wire.KBarrierExit:
		if procs := n.sys.cfg.Procs; m.VC != nil && len(m.VC) != procs {
			return fmt.Errorf("%v from %d refused: it carries a %d-entry clock (cluster has %d)", m.Kind, src, len(m.VC), procs)
		}
	}
	return nil
}

// --- application API: locks ---

// lockLocalState returns (creating if needed) lock l's local record.
// Caller holds lockMu.
func (n *Node) lockLocalState(l mem.LockID) *lockLocal {
	ll := n.locks[l]
	if ll == nil {
		ll = &lockLocal{}
		n.locks[l] = ll
	}
	return ll
}

// Acquire obtains lock l and performs the engine's acquire-time
// consistency actions: under the lazy protocols the grant message
// carries the releaser's clock and the write notices the acquirer lacks
// (§4.2), and LU additionally revalidates the cached pages they name;
// the eager and SC engines move no consistency payload at acquires.
// Acquiring a lock the node holds is an error, as is a negative lock id or
// a call while another goroutine's is in progress on the node.
func (n *Node) Acquire(l mem.LockID) error {
	if l < 0 {
		return fmt.Errorf("dsm: node %d: acquire of lock %d: lock ids are non-negative", n.id, l)
	}
	if err := n.enter("acquire"); err != nil {
		return err
	}
	defer n.leave()
	n.lockMu.Lock()
	ll := n.lockLocalState(l)
	if ll.held {
		n.lockMu.Unlock()
		return fmt.Errorf("dsm: node %d: acquire of lock %d, which it holds", n.id, l)
	}
	req := wire.NewMsg() // a shell: the engine hook is an interface call
	req.Kind, req.Seq, req.A, req.B = wire.KLockReq, n.nextSeq(), int32(l), int32(n.id)
	// The acquire-time engine hook runs on every successful acquisition
	// path, the cached one included: under the lazy protocols an acquire
	// delimits the current interval.
	n.e.acquireStart(req)
	if ll.cached {
		ll.held = true
		n.lockMu.Unlock()
		req.Release()
		n.emit("sync", "cs-enter", int64(l))
		return nil
	}
	ll.acquiring = true
	n.lockMu.Unlock()

	grant, err := n.rpc(n.sys.lockMgr(l), req)
	req.Release()
	n.lockMu.Lock()
	ll.acquiring = false
	if err == nil {
		ll.held, ll.cached = true, true
	}
	n.lockMu.Unlock()
	if err != nil {
		return err
	}
	n.emit("sync", "cs-enter", int64(l))
	// onGrant has absorbed the grant by the time it returns: the log has
	// its records, LU's store clones of its piggybacked diffs.
	err = n.e.onGrant(grant)
	grant.Release()
	return err
}

// Release releases lock l. The engine's release point comes first, with
// the lock still held: the lazy engines close the critical section's
// interval, and the eager ones push its modifications to every other
// cacher, so the next holder can never observe pre-release data. Under the
// lazy protocols releases are otherwise purely local (§4.2) unless a
// forwarded request is pending, in which case the grant — clock, notices,
// and for LU the retained diffs — goes straight to the next acquirer. Like
// every application call, it fails while another goroutine's call is in
// progress on the node.
func (n *Node) Release(l mem.LockID) error {
	if err := n.enter("release"); err != nil {
		return err
	}
	defer n.leave()
	n.lockMu.Lock()
	ll := n.lockLocalState(l)
	if !ll.held {
		n.lockMu.Unlock()
		return fmt.Errorf("dsm: node %d: release of lock %d not held", n.id, l)
	}
	n.lockMu.Unlock()
	n.emit("sync", "cs-exit", int64(l))

	// The release point may exchange messages, so it runs outside lockMu.
	// The lock stays held meanwhile: a remote request parks in ll.pending,
	// and its grant carries what the release point closed.
	if err := n.e.release(); err != nil {
		return err
	}

	n.lockMu.Lock()
	defer n.lockMu.Unlock()
	ll.held = false
	if ll.pending == nil {
		return nil
	}
	req := ll.pending
	ll.pending = nil
	ll.cached = false
	err := n.sendGrant(req)
	req.Release()
	return err
}

// sendGrant builds and sends the lock grant for a forwarded request, with
// the engine's consistency payload; caller holds lockMu. A stopped node
// sends none, and a forward that finds acquiring cleared by an acquisition
// that gave up finds the node stopped: it stopped before it took lockMu.
func (n *Node) sendGrant(req *wire.Msg) error {
	if err := n.failure.Load(); err != nil {
		return *err
	}
	grant := wire.NewMsg() // a shell: the engine hook is an interface call
	grant.Kind, grant.Seq, grant.A = wire.KLockGrant, req.Seq, req.A
	n.e.grant(req, grant)
	err := n.send(mem.ProcID(req.B), grant)
	releaseDiffs(grant) // LU's piggyback, retained under the engine lock
	grant.Release()
	return err
}

// --- application API: barriers ---

// Barrier blocks until every node of the cluster has arrived at barrier
// b, exchanging the engine's consistency payload through the master
// (node 0) — 2(n-1) messages, §4.2 — and then runs the engine's
// post-barrier episode work (data movement, garbage collection). Every
// node passes the engine's release point before it arrives: the lazy
// engines close the interval the arrival ships, and the eager ones flush
// buffered modifications, so every pre-barrier write is propagated before
// any node exits. Each node
// arrives from its one application goroutine; another goroutine's call
// meanwhile fails.
func (n *Node) Barrier(b mem.BarrierID) error {
	if err := n.enter("barrier"); err != nil {
		return err
	}
	defer n.leave()
	n.emit("sync", "barrier-enter", int64(b))
	if err := n.e.release(); err != nil {
		return err
	}

	if n.id == master {
		arrivals, err := n.collectRound(b)
		if err != nil {
			return err
		}
		n.e.masterAbsorb(arrivals)
		// Exit messages carry what each arriver lacks; an arrival is done
		// with once it is answered.
		for _, m := range arrivals {
			exit := wire.NewMsg()
			exit.Kind, exit.Seq, exit.A = wire.KBarrierExit, m.Seq, int32(b)
			n.e.exit(m, exit)
			err := n.send(mem.ProcID(m.B), exit)
			exit.Release()
			m.Release()
			if err != nil {
				return err
			}
		}
	} else {
		arrive := wire.NewMsg()
		arrive.Kind, arrive.Seq, arrive.A, arrive.B = wire.KBarrierArrive, n.nextSeq(), int32(b), int32(n.id)
		n.e.arrive(arrive)
		exit, err := n.rpc(master, arrive)
		arrive.Release()
		if err != nil {
			return err
		}
		defer exit.Release()
		if err := n.e.onExit(exit); err != nil {
			return err
		}
	}
	if err := n.e.postBarrier(); err != nil {
		return err
	}
	n.emit("sync", "barrier-exit", int64(b))
	return nil
}

// --- the master's rendezvous ---

// master is the barrier master: it collects every barrier arrival. A
// barrier is the runtime's only collective: the lazy engines' GC epoch
// needs no round of its own, because a node arrives at the next barrier
// only after it validated for the epoch (lazyEngine.runGC).
const master = mem.ProcID(0)

// park hands a barrier arrival from the dispatch loop to the master's
// collecting round. Legitimate traffic never has more than Procs-1 of
// them pending, and only at the master: an arrival that reaches another
// node, or finds the channel full, is a forgery or a confused peer,
// recorded and dropped instead of wedging the dispatch loop.
func (n *Node) park(m *wire.Msg, src mem.ProcID) {
	why := "this node is not the barrier master"
	if n.id == master {
		select {
		case n.barCh <- m:
			return
		default:
			why = fmt.Sprintf("%d already pending", cap(n.barCh))
		}
	}
	n.noteErr("rendezvous", fmt.Errorf("%v from %d dropped: %s", m.Kind, src, why))
	m.Release()
}

// collectRound collects one arrival per non-master node for barrier b,
// honoring RPCTimeout: a master collecting from a dead peer must unblock,
// stop and surface a descriptive error, exactly like a parked rpc. An
// arrival's B is its sender (checkSender); one claiming the master, which
// only a transport that lets a peer take the master's id delivers, or a
// second one from a node already counted this round is recorded and
// dropped, and the round keeps waiting for the others; one for another
// barrier fails the round. The caller holds the returned messages, in the
// node's collected list: the master's application goroutine's alone, good
// until its next round.
func (n *Node) collectRound(b mem.BarrierID) ([]*wire.Msg, error) {
	got := n.collected[:0]
	defer func() { n.collected = got[:0] }()
	var counted uint64
	for len(got) < n.sys.cfg.Procs-1 {
		m, ok, gaveUp := n.recvTimed(n.barCh)
		switch {
		case gaveUp:
			releaseAll(got)
			return nil, n.fail(fmt.Errorf("dsm: node %d: master: arrivals at barrier %d: no arrival within %v: %w",
				n.id, b, n.sys.cfg.RPCTimeout, ErrRPCTimeout))
		case !ok || m == nil:
			releaseAll(got)
			return nil, fmt.Errorf("dsm: node %d: master: arrivals at barrier %d: %w", n.id, b, ErrClosed)
		}
		from := mem.ProcID(m.B)
		switch {
		case from == master || counted&(1<<uint(from)) != 0:
			n.noteErr("master: arrivals", fmt.Errorf("%v from node %d dropped: the master's own or a second this round", m.Kind, from))
			m.Release()
			continue
		case mem.BarrierID(m.A) != b:
			err := fmt.Errorf("dsm: master: arrivals at barrier %d: %v for barrier %d from node %d", b, m.Kind, m.A, from)
			releaseAll(append(got, m))
			return nil, err
		}
		counted |= 1 << uint(from)
		got = append(got, m)
	}
	return got, nil
}

// --- handler-side lock processing ---

// handleLockReq runs on the requester's worker and sends the grant or
// forward in place.
func (n *Node) handleLockReq(m *wire.Msg) {
	l := mem.LockID(m.A)
	requester := mem.ProcID(m.B) // its sender (checkSender)
	n.lockMu.Lock()
	prev, known := n.mgrLast[l]
	n.mgrLast[l] = requester
	if !known {
		// First acquisition anywhere: grant directly from the manager
		// with no consistency payload.
		n.lockMu.Unlock()
		n.noteErr("lock grant", n.send(requester, &wire.Msg{Kind: wire.KLockGrant, Seq: m.Seq, A: m.A}))
		return
	}
	n.lockMu.Unlock()
	// The forward carries the requester's clock, which the grant is built
	// against — encoded here and now, while the request it shares it with
	// is still held.
	n.noteErr("lock forward", n.send(prev, &wire.Msg{Kind: wire.KLockFwd, Seq: m.Seq, A: m.A, B: m.B, VC: m.VC}))
}

func (n *Node) handleLockFwd(m *wire.Msg) {
	l := mem.LockID(m.A)
	if !n.validProc(mem.ProcID(m.B)) {
		n.noteErr("lock forward",
			fmt.Errorf("lock %d forwarded for invalid requester %d", l, m.B))
		return
	}
	n.lockMu.Lock()
	ll := n.lockLocalState(l)
	ll.cached = false
	if ll.held || ll.acquiring {
		// The node holds the lock (or our own grant is still in flight):
		// the successor waits for our release.
		if ll.pending != nil {
			// The manager forwards each lock to exactly one successor at a
			// time, so a second pending request can only come from a
			// confused or hostile peer: keep the first, record and drop
			// the duplicate.
			n.lockMu.Unlock()
			n.noteErr("lock forward",
				fmt.Errorf("two pending requests for lock %d", l))
			return
		}
		m.Retain() // held by the lock until its release answers it
		ll.pending = m
		n.lockMu.Unlock()
		return
	}
	err := n.sendGrant(m)
	n.lockMu.Unlock()
	if err != nil {
		n.noteErr(fmt.Sprintf("lock %d grant to %d", l, mem.ProcID(m.B)), err)
	}
}
