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
// page's home keeps its entry — the owner, whose copy is the committed
// one, and the copyset of nodes holding a copy — and runs the
// transactions that read or change it:
//
//   - the copy transaction (KPageReq): the owner's copy travels home ->
//     requester, which joins the copyset (serveCopy);
//   - the ownership transaction (KFlushReq under EI, KWriteReq under SC):
//     every other copy is invalidated, each acknowledged, the sender
//     becomes the owner, and the reply carries the owner's copy as a base
//     when the sender's own cannot be trusted (serveOwnership).
//
// Under EU the home owns every page it homes, for good: its own copy is
// the committed one, ships are served from it inline (shipOwn), and a
// writer's diff lands on it under the entry (absorb), which also tells the
// writer's update which copies its hint missed. The copyset only grows —
// EU invalidates nothing — so its members are kept in join order too, and
// a writer's hint is a prefix of that order, named by its length.
//
// Ordering: a transaction holds its entry's lock from its first send to
// its last, and every send happens inside this file, so the transport's
// FIFO delivery plus the receiver's per-page shard queue present each node
// the directory's decisions in order: a cacher installs a page ship before
// it processes the invalidation that follows it. Engines install grants
// on the shard worker as they arrive, never after an rpc wakeup, so the
// copyset always matches what each node holds. EU updates need no such
// order: a copy parks an update that overtakes its ship (eagerEngine).
//
// The owner side — a home's fetch or invalidation arriving at a node — is
// here too (serveFetch, serveInval); the engine supplies only what it does
// to its own copy (holder).
type directory struct {
	n         *Node
	copies    holder
	homeOwned bool       // EU: the home is every one of its pages' owner
	entries   []dirEntry // used only for pages homed here
}

// holder is a directory engine's own copy of each page, as the owner side
// of a transaction sees it. Both methods run under pg's stripe.
type holder interface {
	// committedLocked returns this node's committed contents of pg, a view
	// good under the stripe; false if it holds none.
	committedLocked(pg mem.PageID) ([]byte, bool)
	// invalidateLocked takes away this node's access to its copy of pg.
	invalidateLocked(pg mem.PageID)
}

// dirEntry is one page's directory entry at its home. Under EU the copyset
// is joined, its members in join order, the home's own copy implied.
type dirEntry struct {
	mu      sync.Mutex
	owner   mem.ProcID
	copyset uint64       // EI, SC
	joined  []mem.ProcID // EU
}

func newDirectory(n *Node, copies holder, homeOwned bool) *directory {
	d := &directory{n: n, copies: copies, homeOwned: homeOwned, entries: make([]dirEntry, n.sys.layout.NumPages())}
	for pg := range d.entries {
		d.entries[pg].owner = n.homeOf(mem.PageID(pg))
	}
	return d
}

// handle serves the kinds both directory engines speak: the copy
// transaction on its own goroutine (it waits on the owner) unless the home
// owns the page, the owner side inline on the page's shard worker.
func (d *directory) handle(m *wire.Msg, src mem.ProcID) bool {
	switch m.Kind {
	case wire.KPageReq:
		if d.homeOwned {
			d.shipOwn(m)
			break
		}
		m.Retain() // the transaction outlives this handler
		go d.serveCopy(m)
	case wire.KFetch:
		d.serveFetch(m, src)
	case wire.KInval:
		d.serveInval(m, src)
	default:
		return false
	}
	return true
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

// serveCopy runs the copy transaction for request m.
func (d *directory) serveCopy(m *wire.Msg) {
	defer m.Release()
	n := d.n
	e, pg, to := d.lock("page request", m)
	if e == nil {
		return
	}
	defer e.mu.Unlock()
	data, err := d.fetch(e, pg)
	if err != nil {
		n.noteErr(fmt.Sprintf("page %d owner fetch", pg), err)
		return
	}
	e.copyset |= 1 << uint(to)
	if err := n.send(to, &wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A, Data: data}); err != nil {
		n.noteErr(fmt.Sprintf("page response to %d", to), err)
	}
}

// shipOwn answers page request m from the home's own copy (EU), inline on
// the page's shard worker: the requester joins the copyset, and the ship
// names every member in join order as Wants (Page, Proc), the requester's
// first hint. The copy is encoded into the frame under the entry, so the
// ship holds exactly the diffs absorbed before the join.
func (d *directory) shipOwn(m *wire.Msg) {
	n := d.n
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
	for _, j := range e.joined {
		members = append(members, wire.Want{Page: pg, Proc: j})
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	data, held := d.copies.committedLocked(pg)
	if !held {
		data = n.sys.zeroPage // nobody ever wrote it
	}
	n.stage(to, &wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A, Data: data, Wants: members})
}

// absorb runs land, which brings the home's own copy of pg up to a
// writer's diff (EU), under pg's entry, and returns the copies the
// writer's hint missed: the members that joined after the first known. A
// ship served before land holds no part of the diff and its requester is
// among the members; one served after holds all of it. So every copy gets
// the diff from the writer, from the home or in its ship. The list is a
// view of the entry's, good until the entry is reset.
func (d *directory) absorb(pg mem.PageID, known int32, land func() error) ([]mem.ProcID, error) {
	e := &d.entries[pg]
	e.mu.Lock()
	defer e.mu.Unlock()
	if known < 0 || int(known) > len(e.joined) {
		return nil, fmt.Errorf("the writer knows %d copies of page %d, its home %d", known, pg, len(e.joined))
	}
	if err := land(); err != nil {
		return nil, err
	}
	return e.joined[known:], nil
}

// members returns the nodes that joined pg's copyset (EU).
func (d *directory) members(pg mem.PageID) (set uint64) {
	e := &d.entries[pg]
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, j := range e.joined {
		set |= 1 << uint(j)
	}
	return set
}

// serveOwnership runs the ownership transaction for request m, answering
// with a message of kind resp; op names the request in errors.
//
// The reply carries the owner's copy as a base when the sender is not in
// the copyset — an SC write miss, or an EI flusher that a concurrent flush
// of the same page invalidated after it took its diff — or when the
// request asks for one with a non-empty Data section (an EI flusher whose
// copy was invalid at flush time). The sender re-applies its own diff on
// top, so every committed word survives.
func (d *directory) serveOwnership(m *wire.Msg, op string, resp wire.Kind) {
	defer m.Release()
	n := d.n
	e, pg, to := d.lock(op, m)
	if e == nil {
		return
	}
	defer e.mu.Unlock()
	reply := &wire.Msg{Kind: resp, Seq: m.Seq, A: m.A}
	if e.copyset&(1<<uint(to)) == 0 || len(m.Data) > 0 {
		data, err := d.fetch(e, pg)
		if err != nil {
			n.noteErr(fmt.Sprintf("page %d owner fetch", pg), err)
			return
		}
		reply.Data = data
	}
	if err := d.invalidate(e, pg, to); err != nil {
		n.noteErr(fmt.Sprintf("invalidations of page %d", pg), err)
		return
	}
	if e.owner != to {
		e.owner = to
		n.stats.ownershipMoves.Add(1)
	}
	e.copyset |= 1 << uint(to)
	if err := n.send(to, reply); err != nil {
		n.noteErr(fmt.Sprintf("%v to %d", resp, to), err)
	}
}

// invalidate invalidates every copy of pg in e's copyset but except's as
// one grouped burst: every request staged before a single flush, every
// acknowledgment awaited concurrently. The copies leave the copyset.
func (d *directory) invalidate(e *dirEntry, pg mem.PageID, except mem.ProcID) error {
	n := d.n
	others := e.copyset &^ (1 << uint(except))
	// A burst of up to four, and its acknowledgements, live in the frame.
	var (
		reqBuf [4]outMsg
		ackBuf [4]*wire.Msg
	)
	reqs := reqBuf[:0]
	for rest := others; rest != 0; rest &= rest - 1 {
		reqs = append(reqs, outMsg{dst: mem.ProcID(bits.TrailingZeros64(rest)), m: wire.Msg{
			Kind: wire.KInval, Seq: n.nextSeq(), A: int32(pg),
		}})
	}
	if len(reqs) == 0 {
		return nil
	}
	acks, err := n.rpcAll(reqs, ackBuf[:0])
	if err != nil {
		return err
	}
	releaseAll(acks)
	e.copyset &^= others
	return nil
}

// fetch obtains pg's committed contents from e's owner (EI, SC); the
// caller holds e's lock. It always travels as a KFetch, even when the home
// is itself the owner: a previous transaction's grant to this node may still be
// queued on the page's shard, and reading memory directly would jump
// ahead of it and serve pre-grant data. The loopback message queues
// behind every install in flight, so the shard worker answers with the
// page in directory order (loopback costs no simulated traffic).
func (d *directory) fetch(e *dirEntry, pg mem.PageID) ([]byte, error) {
	resp, err := d.n.rpc(e.owner, &wire.Msg{Kind: wire.KFetch, Seq: d.n.nextSeq(), A: int32(pg)})
	if err != nil {
		return nil, err
	}
	data := resp.Data // owned by the decoded message, not by its shell
	resp.Release()
	return data, nil
}

// reset restarts pg's entry under its current home, with the home holding
// the only copy if held. Called only from first-touch's quiescent hand-off
// (adoptPage), with no transaction in flight anywhere.
func (d *directory) reset(pg mem.PageID, held bool) {
	e := &d.entries[pg]
	e.mu.Lock()
	e.owner, e.copyset, e.joined = d.n.homeOf(pg), 0, nil
	if held {
		e.copyset = 1 << uint(d.n.id)
	}
	e.mu.Unlock()
}

// serveFetch answers a home's fetch of this owner's committed copy, inline
// on the page's shard worker.
func (d *directory) serveFetch(m *wire.Msg, src mem.ProcID) {
	n := d.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("owner fetch", fmt.Errorf("fetch of invalid page %d", pg))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	data, held := d.copies.committedLocked(pg)
	if !held && n.homeOf(pg) != n.id {
		// The home thinks we own a page we never held: only a misbehaving
		// (or hostile) peer can cause that. Drop the fetch; the record
		// surfaces via Close.
		n.noteErr("owner fetch", fmt.Errorf("fetch of page %d this node never held", pg))
		return
	}
	if !held {
		// The page's initial owner, and nobody ever wrote it: the
		// committed state is the zero page.
		data = n.sys.zeroPage
	}
	// Staging encodes: the copy's bytes go straight into the frame, under
	// the stripe that keeps them still (the destination lock is a leaf).
	n.stage(src, &wire.Msg{Kind: wire.KFetchResp, Seq: m.Seq, A: m.A, Data: data})
}

// serveInval applies a home's invalidation to this node's copy, inline on
// the page's shard worker, and acknowledges it.
func (d *directory) serveInval(m *wire.Msg, src mem.ProcID) {
	n := d.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("invalidate", fmt.Errorf("invalidation of invalid page %d", pg))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	d.copies.invalidateLocked(pg)
	pmu.Unlock()
	n.stats.invalsReceived.Add(1)
	n.stage(src, &wire.Msg{Kind: wire.KInvalAck, Seq: m.Seq, A: m.A})
}
