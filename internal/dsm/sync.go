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
// With Config.GoroutinesPerNode > 1 both primitives are two-level: the
// node presents one identity to the distributed protocol, and local
// goroutines rendezvous in front of it. Lock contention between local
// goroutines resolves by local handoff (the cached-reacquire fast path
// of §4.2 — no protocol traffic); a barrier's last local arriver runs
// the cluster exchange on behalf of the node and releases the rest.

// --- the protocol tag ---
//
// Every lock request, lock grant and barrier message carries the engine's
// consistency payload as one wire.Section tagged with the sender's Mode
// (an engine with nothing to say sends none). A receiver accepts only its
// own mode: that check is the one place a cluster whose Systems disagree
// on Config.Mode surfaces — LI and LU speak the same message kinds, so
// nothing else would notice. The engine hooks read and write the
// message's flat VC/Intervals/Diffs; sealSection and openSection move the
// payload between those and the section.

// sealSection moves the payload an engine hook left in m's flat fields
// into m's one section.
func (n *Node) sealSection(m *wire.Msg) {
	if m.VC != nil || len(m.Intervals) > 0 || len(m.Diffs) > 0 {
		m.AppendSection(wire.Section{
			Mode: uint16(n.sys.cfg.Mode), VC: m.VC,
			Intervals: m.Intervals, Diffs: m.Diffs,
		})
		m.VC, m.Intervals, m.Diffs = nil, nil, nil
	}
}

// openSection is sealSection's inverse on a received message: its section
// becomes the flat payload the engine hooks read, and nothing else does
// (no section is an empty payload). A section for another mode, a second
// one, or one whose clock does not match the cluster is a forgery, a
// corruption or a misconfigured peer: recorded and dropped (op names the
// message for the error).
func (n *Node) openSection(op string, m *wire.Msg, src mem.ProcID) {
	mode, procs := n.sys.cfg.Mode, n.sys.cfg.Procs
	m.VC, m.Intervals, m.Diffs = nil, nil, nil
	opened := false
	for _, s := range m.Sections {
		switch {
		case Mode(s.Mode) != mode:
			n.noteErr(op, fmt.Errorf("section for mode %v on an %v node, from %d", Mode(s.Mode), mode, src))
		case opened:
			n.noteErr(op, fmt.Errorf("duplicate section for mode %v from %d", mode, src))
		case len(s.VC) != 0 && len(s.VC) != procs:
			n.noteErr(op, fmt.Errorf("section for mode %v from %d carries a %d-entry clock (cluster has %d)",
				mode, src, len(s.VC), procs))
		default:
			m.VC, m.Intervals, m.Diffs = s.VC, s.Intervals, s.Diffs
			opened = true
		}
	}
	m.Sections = nil
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
//
// Any number of goroutines on the node may contend for the same lock:
// while one holds it the others park on a local queue and are handed
// the lock at release without touching the interconnect. A goroutine
// must not re-acquire a lock it already holds (self-deadlock, exactly
// as with a real mutex).
func (n *Node) Acquire(l mem.LockID) error {
	for {
		n.lockMu.Lock()
		ll := n.lockLocalState(l)
		if !ll.held && !ll.acquiring {
			req := wire.NewMsg() // a shell: the engine hook is an interface call
			req.Kind, req.Seq, req.A, req.B = wire.KLockReq, n.nextSeq(), int32(l), int32(n.id)
			// The acquire-time engine hook runs on every successful
			// acquisition path, local handoffs included: under the lazy
			// protocols an acquire delimits the current interval.
			n.e.acquireStart(req)
			n.sealSection(req)
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
			if err != nil {
				n.lockMu.Lock()
				ll.acquiring = false
				// Wake parked goroutines so they observe the failure (or
				// retry) instead of waiting for a release that never comes.
				for _, ch := range ll.waiters {
					close(ch)
				}
				ll.waiters = nil
				n.lockMu.Unlock()
				return err
			}

			n.lockMu.Lock()
			ll.held = true
			ll.acquiring = false
			ll.cached = true
			n.lockMu.Unlock()
			n.emit("sync", "cs-enter", int64(l))
			// onGrant has absorbed the grant by the time it returns: the log
			// has its records, LU's store clones of its piggybacked diffs.
			n.openSection("lock grant", grant, mem.ProcID(grant.B))
			err = n.e.onGrant(grant)
			grant.Release()
			return err
		}
		// Held (or being acquired) by another local goroutine: park until
		// a release hands the lock over or sends it away, then retry.
		ch := make(chan struct{})
		ll.waiters = append(ll.waiters, ch)
		n.lockMu.Unlock()
		select {
		case <-ch:
		case <-n.closedCh:
			return fmt.Errorf("dsm: node %d: acquire of lock %d: %w", n.id, l, ErrClosed)
		}
	}
}

// Release releases lock l. Under the lazy protocols releases are purely
// local (§4.2) unless a forwarded request is pending, in which case the
// grant — clock, notices, and for LU the retained diffs — goes straight
// to the next acquirer. The eager engines first push the critical
// section's modifications to every other cacher (preRelease), so the
// next holder can never observe pre-release data. A remote requester
// already waiting takes precedence over parked local goroutines (they
// re-contend through the manager), keeping the distributed protocol
// starvation-free.
func (n *Node) Release(l mem.LockID) error {
	n.lockMu.Lock()
	ll := n.lockLocalState(l)
	if !ll.held {
		n.lockMu.Unlock()
		return fmt.Errorf("dsm: node %d: release of lock %d not held", n.id, l)
	}
	n.lockMu.Unlock()
	n.emit("sync", "cs-exit", int64(l))

	// Eager flush point: blocking message exchanges, so outside lockMu.
	// Only the holding goroutine calls Release, so held cannot flip
	// underneath us; a concurrent local Acquire parks on the waiter
	// queue, and a remote request parks in ll.pending.
	if err := n.e.preRelease(); err != nil {
		return err
	}

	n.lockMu.Lock()
	defer n.lockMu.Unlock()
	n.e.release()
	ll.held = false
	var err error
	if ll.pending != nil {
		req := ll.pending
		ll.pending = nil
		ll.cached = false
		err = n.sendGrant(req)
		req.Release()
	}
	if len(ll.waiters) > 0 {
		if ll.cached {
			// Local handoff: wake exactly one parked goroutine; it takes
			// the cached fast path.
			close(ll.waiters[0])
			ll.waiters = ll.waiters[1:]
		} else {
			// The lock left the node: every parked goroutine re-contends
			// through the manager.
			for _, ch := range ll.waiters {
				close(ch)
			}
			ll.waiters = nil
		}
	}
	return err
}

// sendGrant builds and sends the lock grant for a forwarded request,
// with the engine's consistency payload. Caller holds lockMu.
func (n *Node) sendGrant(req *wire.Msg) error {
	grant := wire.NewMsg() // a shell: the engine hook is an interface call
	grant.Kind, grant.Seq, grant.A = wire.KLockGrant, req.Seq, req.A
	n.openSection("lock grant build", req, mem.ProcID(req.B))
	n.e.grant(req, grant)
	n.sealSection(grant)
	err := n.send(mem.ProcID(req.B), grant)
	releaseDiffs(grant) // LU's piggyback, retained under the engine lock
	grant.Release()
	return err
}

// --- application API: barriers ---

// Barrier blocks until every participant has arrived at barrier b: the
// node's GoroutinesPerNode local goroutines first, then every node of
// the cluster, exchanging the engine's consistency payload through the
// master (node 0) — 2(n-1) messages, §4.2 — and running the engine's
// post-barrier episode work (data movement, garbage collection) once
// per node. The eager engines flush buffered modifications before
// arriving, so every pre-barrier write is propagated before any
// participant exits. All local participants must name the same barrier
// id within one episode.
func (n *Node) Barrier(b mem.BarrierID) error {
	k := n.sys.cfg.GoroutinesPerNode
	if k <= 1 {
		return n.clusterBarrier(b)
	}
	n.barMu.Lock()
	ep := n.bar
	if ep == nil {
		ep = &barEpisode{id: b, done: make(chan struct{})}
		n.bar = ep
	}
	if ep.id != b {
		n.barMu.Unlock()
		return fmt.Errorf("dsm: node %d: barrier %d entered while barrier %d is rendezvousing", n.id, b, ep.id)
	}
	ep.arrived++
	if ep.arrived == k {
		// Leader: run the cluster exchange on behalf of the node. The
		// episode slot is cleared first so released participants can
		// immediately start the next rendezvous.
		n.bar = nil
		n.barMu.Unlock()
		ep.err = n.clusterBarrier(b)
		close(ep.done)
		return ep.err
	}
	n.barMu.Unlock()
	select {
	case <-ep.done:
		return ep.err
	case <-n.closedCh:
		return fmt.Errorf("dsm: node %d: barrier %d: %w", n.id, b, ErrClosed)
	}
}

// clusterBarrier is the node-level barrier: the distributed rendezvous
// through the master plus the engine's pre/post episode work.
func (n *Node) clusterBarrier(b mem.BarrierID) error {
	n.emit("sync", "barrier-enter", int64(b))
	if err := n.e.barrierEntry(); err != nil {
		return err
	}

	if n.id == master {
		arrivals, err := n.collectRound(b)
		if err != nil {
			return err
		}
		for _, m := range arrivals {
			n.openSection("barrier arrival", m, mem.ProcID(m.B))
		}
		n.e.masterAbsorb(arrivals)
		// Exit messages carry what each arriver lacks; an arrival is done
		// with once it is answered.
		for _, m := range arrivals {
			exit := wire.NewMsg()
			exit.Kind, exit.Seq, exit.A = wire.KBarrierExit, m.Seq, int32(b)
			n.e.exit(m, exit)
			n.sealSection(exit)
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
		n.sealSection(arrive)
		exit, err := n.rpc(master, arrive)
		arrive.Release()
		if err != nil {
			return err
		}
		defer exit.Release()
		n.openSection("barrier exit", exit, mem.ProcID(exit.B))
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
// only after it validated through the epoch (lazyEngine.runGC).
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
// honoring RPCTimeout: a master collecting from a dead peer must unblock
// and surface a descriptive error, exactly like a parked rpc. An
// arrival's B is its sender (checkSender); one claiming the master, which
// only a transport that lets a peer take the master's id delivers, or a
// second one from a node already counted this round is recorded and
// dropped, and the round keeps waiting for the others; one for another
// barrier fails the round. The caller holds the returned messages, in the
// node's collected list: the barrier leader's alone, good until its next
// round.
func (n *Node) collectRound(b mem.BarrierID) ([]*wire.Msg, error) {
	got := n.collected[:0]
	defer func() { n.collected = got[:0] }()
	var counted uint64
	for len(got) < n.sys.cfg.Procs-1 {
		m, ok, timedOut := n.recvTimed(n.barCh)
		switch {
		case timedOut:
			releaseAll(got)
			return nil, fmt.Errorf("dsm: node %d: master: arrivals at barrier %d: no arrival within %v: %w",
				n.id, b, n.sys.cfg.RPCTimeout, ErrRPCTimeout)
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

// handleLockReq runs on the lock's shard worker and sends the grant or
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
	// The forward carries the requester's section through unopened —
	// encoded here and now, while the request it shares it with is still
	// held.
	n.noteErr("lock forward", n.send(prev, &wire.Msg{Kind: wire.KLockFwd, Seq: m.Seq, A: m.A, B: m.B, Sections: m.Sections}))
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
		// A local goroutine holds the lock (or our own grant is still in
		// flight): the successor waits for our release.
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
