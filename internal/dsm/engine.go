package dsm

import (
	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// engine is a node's pluggable consistency policy. The Node owns the
// protocol-independent machinery — message plumbing, the distributed
// lock state machine, the barrier rendezvous — and delegates everything
// the paper varies between protocols to its engine: page state and data
// movement, the consistency payload of lock grants and barrier messages,
// and release/barrier-time propagation.
//
// A node runs exactly one engine, the one Config.Mode names, for every
// page. The hooks read and write a synchronization message's flat
// VC/Intervals/Diffs; the Node carries that payload on the wire as one
// section tagged with the mode (sync.go), so an engine never sees the
// payload of a peer that runs another protocol.
//
// Concurrency contract:
//
//   - Per-page state lives under the node's striped lock table
//     (Node.pageLock); engines take the stripe for exactly the page they
//     touch and never hold it across a blocking operation, so
//     independent pages fault, install and diff in parallel. Stripes are
//     leaf locks. A twinning engine's (LI/LU/EI/EU) copy is a pageCopy
//     (writeset.go), the only code that touches a twin: outside bytes
//     reach a copy only through its land, which keeps the twin the
//     committed contents under a concurrent local writer.
//   - Miss service — the blocking protocol transaction that brings a
//     page current — serializes per page under Node.missLock; handler
//     work never takes a miss lock, so it can always drain, and a
//     goroutine holds at most one (a lazy fault applies its sibling pages
//     after it let go of its own page's).
//   - Engine-global synchronization state (the lazy engine's vector
//     clock, interval log and diff store) lives under an engine-private
//     mutex ordered after lockMu and before the page stripes.
//   - Every method may be called from multiple application goroutines
//     concurrently. acquireStart, grant and release are called with the
//     node's lockMu held (grant also from a lock shard worker); barrier
//     hooks are called by the barrier leader goroutine only; handle runs
//     on a shard worker with per-page arrival order guaranteed.
//   - Statistics tick through the node's atomic counters from any
//     goroutine.
type engine interface {
	// readPage copies len(dst) bytes out of page pg at off, first making
	// the local copy current enough for the protocol's guarantees.
	readPage(pg mem.PageID, off int, dst []byte) error
	// writePage copies src into page pg at off, first obtaining whatever
	// access the protocol requires (a valid copy whose first write captures
	// the twin under the multiple-writer protocols, exclusive ownership
	// under SC).
	writePage(pg mem.PageID, off int, src []byte) error

	// acquireStart runs as an Acquire begins (lockMu held): the lazy
	// engines close the current interval and stamp the request with their
	// vector clock so the grant can carry exactly the missing write
	// notices.
	acquireStart(req *wire.Msg)
	// grant fills the consistency payload of a lock grant built for req
	// (write notices and piggybacked diffs under the lazy protocols;
	// nothing under EI/EU/SC, §3: "no consistency-related operations
	// occur on an acquire"). Called with lockMu held, from the
	// application goroutine or a lock shard worker, whichever releases
	// the lock to a waiter.
	grant(req, grant *wire.Msg)
	// onGrant absorbs a received grant's consistency payload.
	onGrant(grant *wire.Msg) error
	// preRelease runs before a release takes effect: the eager engines
	// push buffered modifications to every other cacher and block for
	// acknowledgments here.
	preRelease() error
	// release runs (lockMu held) as the release takes effect (the lazy
	// engines close the interval the critical section wrote).
	release()

	// barrierEntry runs as the node-level barrier begins on every node,
	// master included, before its arrival (called by the barrier leader
	// goroutine): the lazy engines close the current interval, the eager
	// ones flush, like preRelease.
	barrierEntry() error
	// arrive fills a non-master node's arrival payload.
	arrive(arrive *wire.Msg)
	// masterAbsorb absorbs the payloads of all arrivals at the master,
	// once every one of them is in.
	masterAbsorb(arrivals []*wire.Msg)
	// exit fills the exit payload answering arrival m.
	exit(m, exit *wire.Msg)
	// onExit absorbs the exit payload at a non-master node.
	onExit(exit *wire.Msg) error
	// postBarrier completes the episode after the rendezvous: the lazy
	// engines invalidate or update noticed pages and run the configured
	// garbage-collection epoch. Runs once per node, on the barrier
	// leader, while the node's other application goroutines are still
	// parked in the local rendezvous.
	postBarrier(b mem.BarrierID) error

	// handle processes an engine-specific message, returning false if
	// the kind is not one of the engine's. It runs on the shard worker
	// serializing the message's page (directory-order installs happen
	// here; an eager update, and an invalidation's pages after its first,
	// may overtake a ship) and must not block the worker: work that waits
	// for responses (SC's directory transactions, an eager home's forwards
	// and invalidations) is spawned onto its own goroutine. A response
	// produced inline leaves through Node.send in place, under whatever
	// lock orders it, and its send error goes to noteErr.
	handle(m *wire.Msg, src mem.ProcID) bool

	// clock returns the node's vector time (zero for engines that do not
	// track causality).
	clock() vc.VC
}
