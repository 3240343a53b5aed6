package dsm

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/mem"
	"repro/internal/wire"
)

// directory is the per-page home directory of the eager engines (§3's
// Munin-style write-shared protocol) and the SC baseline (§6's Ivy). A
// page's home keeps its entry — who holds a copy — and runs the
// transactions that read or change it.
//
// Under EI and EU the home owns every page it homes, for good: its own
// copy is the committed one, ships are served from it inline (shipOwn),
// and a writer's diff lands on it under the entry (absorb). Members are
// kept in join order: EU's copyset only grows, and a writer's hint is a
// prefix of that order, named by its length; an EI diff takes every
// member but its writer out, for the home to invalidate.
//
// Under SC the home keeps the owner, whose copy is the committed one, and
// runs the copy (KPageReq) and ownership (KWriteReq) transactions (serve),
// each on a goroutine of its own that holds the entry's lock from its
// first send to its last.
//
// Ordering: every send that depends on an entry is handed to the
// transport under its lock, or after absorb read it there, so nothing
// queues between the decision and the wire, and only a page's home sends
// its ships, grants, invalidations and fetches (a receiver refuses them
// from anyone else, fromHome). The transport's FIFO delivery plus the
// receiver's one queue per sender then present each node the directory's
// decisions in order — a cacher installs a page ship before it processes
// any invalidation sent after it, whichever pages that names. Engines
// install grants on the sender's worker as they arrive, so the copyset
// always matches what each node holds. Only an EU writer's update, which
// comes from another node, may overtake a ship; that is the engine's
// (eagerEngine).
//
// The holder side — a home's fetch or invalidation arriving at a node — is
// here too (serveFetch, serveInval); the engine supplies only what it does
// to its own copy (holder).
type directory struct {
	n       *Node
	copies  holder
	entries []dirEntry // used only for pages homed here
}

// holder is a directory engine's own copy of each page, as the owner side
// of a transaction sees it. Both methods run under pg's stripe.
type holder interface {
	// committedLocked returns this node's committed contents of pg, a view
	// good under the stripe until its done; false if it holds none.
	committedLocked(pg mem.PageID) (committedView, bool)
	// invalidateLocked takes away this node's access to its copy of pg.
	invalidateLocked(pg mem.PageID)
}

// dirEntry is one page's directory entry at its home. Under EI and EU the
// copyset is joined, in join order, the home's own copy implied.
type dirEntry struct {
	mu      sync.Mutex
	owner   mem.ProcID      // SC
	copyset uint64          // SC
	joined  []mem.ProcID    // EI, EU
	rounds  []chan struct{} // EI: the invalidation rounds not yet acknowledged
}

func newDirectory(n *Node, copies holder) *directory {
	d := &directory{n: n, copies: copies, entries: make([]dirEntry, n.sys.layout.NumPages())}
	for pg := range d.entries {
		d.entries[pg].owner = n.homeOf(mem.PageID(pg))
	}
	return d
}

// lock validates the page of request m (op names it in errors; its B is
// its sender, checkSender) and returns the page's entry locked; nil, with
// the cause recorded, for a page outside the space.
func (d *directory) lock(op string, m *wire.Msg) (*dirEntry, mem.PageID, mem.ProcID) {
	pg, from := mem.PageID(m.A), mem.ProcID(m.B)
	if !d.n.validPage(pg) {
		d.n.noteErr(op, fmt.Errorf("request for invalid page %d from %d", pg, from))
		return nil, pg, from
	}
	e := &d.entries[pg]
	e.mu.Lock()
	return e, pg, from
}

// shipOwn answers page request m from the home's own copy (EI, EU), inline
// on the requester's worker: the requester joins the copyset, and under
// EU (named) the ship names every member in join order as Wants (Page,
// Proc), the requester's first hint. The copy is encoded into the frame
// under the entry, so the ship holds exactly the diffs absorbed before the
// join.
func (d *directory) shipOwn(m *wire.Msg, named bool) {
	e, pg, to := d.lock("page request", m)
	if e == nil {
		return
	}
	defer e.mu.Unlock()
	if !slices.Contains(e.joined, to) {
		e.joined = append(e.joined, to)
	}
	var buf [maxProcs]wire.Want
	members := buf[:0]
	if named {
		for _, j := range e.joined {
			members = append(members, wire.Want{Page: pg, Proc: j})
		}
	}
	d.sendCopy(to, pg, &wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A, Wants: members})
}

// sendCopy sends reply to dst carrying this node's committed copy of pg,
// encoded under the stripe that keeps it still: the zero page at a home
// nobody wrote. A node that neither homes nor holds pg sends nothing:
// only a misbehaving or hostile peer asks it, and the record surfaces via
// Close.
func (d *directory) sendCopy(dst mem.ProcID, pg mem.PageID, reply *wire.Msg) {
	n := d.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	view, held := d.copies.committedLocked(pg)
	if !held && n.homeOf(pg) != n.id {
		n.noteErr("page copy", fmt.Errorf("node %d asks for page %d, which this node neither homes nor holds", dst, pg))
		return
	}
	if !held {
		view.data = n.sys.zeroPage
	}
	reply.Data = view.data
	n.noteErr("page copy", n.send(dst, reply))
	view.done()
}

// revocation is an EI home's round of invalidations for one writer's
// update or its own flush, with the open rounds it follows: one KInval per
// copy it takes out, naming every page of the round that copy holds. done,
// made with the first invalidation, closes once all are acknowledged (end).
type revocation struct {
	invals []outMsg
	after  []chan struct{}
	done   chan struct{}
}

// revoke adds pg to the invalidation r sends copy j.
func (r *revocation) revoke(n *Node, j mem.ProcID, pg mem.PageID) {
	for i := range r.invals {
		if r.invals[i].dst == j {
			r.invals[i].m.Wants = append(r.invals[i].m.Wants, wire.Want{Page: pg})
			return
		}
	}
	r.invals = append(r.invals, outMsg{dst: j, m: wire.Msg{Kind: wire.KInval, Seq: n.nextSeq(), Wants: []wire.Want{{Page: pg}}}})
}

// absorb runs land, when non-nil, which brings the home's own copy of pg
// up to writer's diff, under pg's entry, and returns the copies the diff
// leaves stale.
//
// Under EU (r nil) those are the members that joined after the first
// known, the writer's hint. A ship served before land holds no part of the
// diff and its requester is among the members; one served after holds all
// of it. So every copy gets the diff from the writer, from the home or in
// its ship.
//
// Under EI they are every member but the writer; they leave the copyset,
// and r's invalidation of each names pg. Two orders hold:
//
//   - the writer's own update never invalidates the writer's copy, and no
//     ship served before land reaches the writer while the diff is
//     unacknowledged: the writer's one application goroutine waits for the
//     acknowledgement before its next miss, and a miss that gave up stopped
//     the writer (eagerEngine.ensureValid);
//   - a copy's invalidation leaves after the ship that made it a member,
//     on the same FIFO link, though r's are sent after absorb returns:
//     shipOwn sends the ship under the entry before absorb can see the
//     member.
//
// A copy an earlier round took out may not have processed its invalidation
// yet, so r follows every round of pg still open.
func (d *directory) absorb(pg mem.PageID, writer mem.ProcID, known int32, r *revocation, land func() error) (stale uint64, err error) {
	e := &d.entries[pg]
	e.mu.Lock()
	defer e.mu.Unlock()
	if known < 0 || int(known) > len(e.joined) {
		return 0, fmt.Errorf("the writer knows %d copies of page %d, its home %d", known, pg, len(e.joined))
	}
	if land != nil {
		if err := land(); err != nil {
			return 0, err
		}
	}
	for _, j := range e.joined[known:] {
		stale |= 1 << uint(j)
	}
	if r == nil {
		return stale, nil
	}
	open := e.rounds[:0]
	for _, c := range e.rounds {
		select {
		case <-c: // acknowledged
		default:
			open = append(open, c)
			if c != r.done { // not a page the update names twice
				r.after = append(r.after, c)
			}
		}
	}
	stale &^= 1 << uint(writer)
	e.joined = slices.DeleteFunc(e.joined, func(j mem.ProcID) bool { return stale&(1<<uint(j)) != 0 })
	for rest := stale; rest != 0; rest &= rest - 1 {
		r.revoke(d.n, mem.ProcID(bits.TrailingZeros64(rest)), pg)
	}
	if stale != 0 {
		if r.done == nil {
			r.done = make(chan struct{})
		}
		open = append(open, r.done)
	}
	e.rounds = open
	return stale, nil
}

// end closes r's round, its invalidations acknowledged or failed, then
// waits for the rounds r follows: closed first, no two wait for each other.
func (r *revocation) end() {
	if r.done != nil {
		close(r.done)
	}
	for _, c := range r.after {
		<-c
	}
}

// serve runs SC's transaction for request m: the copy transaction for a
// read miss (KPageReq), the ownership transaction for a write miss
// (KWriteReq), whose reply carries the owner's copy only when the sender
// holds none.
func (d *directory) serve(m *wire.Msg) {
	defer m.Release()
	n := d.n
	write := m.Kind == wire.KWriteReq
	e, pg, to := d.lock(m.Kind.String(), m)
	if e == nil {
		return
	}
	defer e.mu.Unlock()
	reply := &wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A}
	if !write || e.copyset&(1<<uint(to)) == 0 {
		data, err := d.fetch(e, pg)
		if err != nil {
			n.noteErr(fmt.Sprintf("page %d owner fetch", pg), err)
			return
		}
		reply.Data = data
	}
	if write {
		// Every other copy is invalidated in one burst, an invalidation
		// naming pg each, up to four of them and their acknowledgements on
		// the stack.
		var (
			reqBuf [4]outMsg
			ackBuf [4]*wire.Msg
		)
		page := [1]wire.Want{{Page: pg}}
		others, reqs := e.copyset&^(1<<uint(to)), reqBuf[:0]
		for rest := others; rest != 0; rest &= rest - 1 {
			reqs = append(reqs, outMsg{dst: mem.ProcID(bits.TrailingZeros64(rest)), m: wire.Msg{Kind: wire.KInval, Seq: n.nextSeq(), Wants: page[:]}})
		}
		acks, err := n.rpcAll(reqs, ackBuf[:0])
		releaseAll(acks)
		if err != nil {
			n.noteErr(fmt.Sprintf("invalidations of page %d", pg), err)
			return
		}
		e.copyset &^= others
		if e.owner != to {
			e.owner = to
			n.stats.ownershipMoves.Add(1)
		}
		reply.Kind = wire.KWriteResp
	}
	e.copyset |= 1 << uint(to)
	if err := n.send(to, reply); err != nil {
		n.noteErr(fmt.Sprintf("%v to %d", reply.Kind, to), err)
	}
}

// fetch obtains pg's committed contents from e's owner (SC); the caller
// holds e's lock. It always travels as a KFetch, even when the home is
// itself the owner: a previous transaction's grant to this node may still
// be queued on the home's worker, and reading memory directly would jump
// ahead of it and serve pre-grant data. The loopback message queues
// behind every grant the home sent before it, so the worker answers with
// the page in directory order (loopback costs no simulated traffic).
func (d *directory) fetch(e *dirEntry, pg mem.PageID) ([]byte, error) {
	resp, err := d.n.rpc(e.owner, &wire.Msg{Kind: wire.KFetch, Seq: d.n.nextSeq(), A: int32(pg)})
	if err != nil {
		return nil, err
	}
	data := resp.Data // owned by the decoded message, not by its shell
	resp.Release()
	return data, nil
}

// serveFetch answers a home's fetch of this owner's committed copy (SC),
// inline on the home's worker.
func (d *directory) serveFetch(m *wire.Msg, src mem.ProcID) {
	n := d.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("owner fetch", fmt.Errorf("fetch of invalid page %d", pg))
		return
	}
	if d.fromHome(m, pg, src) {
		d.sendCopy(src, pg, &wire.Msg{Kind: wire.KFetchResp, Seq: m.Seq, A: m.A})
	}
}

// serveInval applies a home's invalidation to this node's copies of the
// pages it names, each under its stripe, inline on the home's worker, and
// acknowledges it once. One naming no page, a page outside the space or a
// page its sender does not home is recorded and dropped.
func (d *directory) serveInval(m *wire.Msg, src mem.ProcID) {
	n := d.n
	if len(m.Wants) == 0 {
		n.noteErr("invalidate", fmt.Errorf("invalidation from %d names no page", src))
		return
	}
	for _, w := range m.Wants {
		if !n.validPage(w.Page) {
			n.noteErr("invalidate", fmt.Errorf("invalidation of invalid page %d", w.Page))
			return
		}
	}
	if slices.ContainsFunc(m.Wants, func(w wire.Want) bool { return !d.fromHome(m, w.Page, src) }) {
		return
	}
	for _, w := range m.Wants {
		pmu := n.pageLock(w.Page)
		pmu.Lock()
		d.copies.invalidateLocked(w.Page)
		pmu.Unlock()
	}
	n.stats.invalsReceived.Add(int64(len(m.Wants)))
	n.noteErr("invalidation ack", n.send(src, &wire.Msg{Kind: wire.KInvalAck, Seq: m.Seq}))
}

// fromHome reports whether src homes pg, a valid page m names, recording m
// otherwise: a node takes a page's ships, grants, invalidations and fetches
// from its home alone.
func (d *directory) fromHome(m *wire.Msg, pg mem.PageID, src mem.ProcID) bool {
	ok := d.n.homeOf(pg) == src
	if !ok {
		d.n.noteErr("directory", fmt.Errorf("%v of page %d from %d, which does not home it", m.Kind, pg, src))
	}
	return ok
}
