package dsm

import (
	"repro/internal/mem"
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
// VC/Intervals/Diffs, which travel as they are (sync.go): every System of
// a cluster runs the same mode, checked once as it joins (join.go), so an
// engine never sees the payload of a peer that runs another protocol.
//
// Concurrency contract:
//
//   - Per-page state lives under the node's striped lock table
//     (Node.pageLock); engines take the stripe for exactly the page they
//     touch and never hold it across a blocking operation, so
//     independent pages fault, install and diff in parallel. Stripes are
//     leaf locks. A write-capturing engine's (LI/LU/EI/EU) copy is a
//     pageCopy (writeset.go), the only code that touches its write log or
//     lists its page on the engine's dirty list: outside bytes reach a
//     copy only through its land, which keeps the log's saved words the
//     committed contents under a concurrent local writer; its log is the
//     page's dirty bit (pageCopy states the invariant).
//   - Accesses, and with them miss service — the blocking protocol
//     transaction that brings a page current — and the lock and barrier
//     hooks run on the node's one application goroutine (Node.enter
//     turns away a second), except a grant answering a forward, which a
//     handler worker builds. So one miss, one flush and one round are
//     in progress at a time, and their scratch, and the dirty list, are
//     the engine's.
//     acquireStart and grant are called with the node's lockMu held;
//     release is called with no lock held, before a Release takes lockMu.
//   - Engine-global synchronization state (the lazy engine's vector
//     clock, interval log and diff store) lives under an engine-private
//     mutex ordered after lockMu and before the page stripes: handlers
//     read and extend it too.
//   - handle runs on its sender's worker, in Message order (node.go).
//   - Statistics tick through the node's atomic counters from any
//     goroutine.
type engine interface {
	// readPage copies len(dst) bytes out of page pg at off, first making
	// the local copy current enough for the protocol's guarantees.
	readPage(pg mem.PageID, off int, dst []byte) error
	// writePage copies src into page pg at off, first obtaining whatever
	// access the protocol requires (a valid copy whose write log takes the
	// words' old values under the multiple-writer protocols, exclusive
	// ownership under SC).
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
	// application goroutine or a handler worker, whichever releases the
	// lock to a waiter.
	grant(req, grant *wire.Msg)
	// onGrant absorbs a received grant's consistency payload.
	onGrant(grant *wire.Msg) error
	// release runs at a release point — a lock release, before it takes
	// effect, and a barrier, on every node before its arrival — with no
	// lock held: the lazy engines close the current interval, the eager
	// ones push buffered modifications to every other cacher and block for
	// acknowledgments, and SC does nothing.
	release() error
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
	// engines discard the garbage-collection epoch the barrier before
	// validated, invalidate or update noticed pages and validate through
	// the next epoch when one is due. Runs before the node's Barrier
	// returns, and never earlier than the master holds every arrival: a
	// non-master runs it only once it holds the exit, which the master
	// sends after it collected them all. So when it runs, every node has
	// left the previous barrier's postBarrier.
	postBarrier() error

	// handle processes an engine-specific message, returning false if
	// the kind is not one of the engine's. It runs on the sender's worker
	// and must not block it (Message order, node.go); installs happen
	// here. A response produced inline leaves through Node.send in place,
	// under whatever lock orders it, and its send error goes to noteErr.
	handle(m *wire.Msg, src mem.ProcID) bool
}

// noPayload is the synchronization hooks of an engine whose lock and
// barrier messages carry no consistency payload (EI/EU and SC), which EI/EU
// and SC embed. Its release does nothing; the eager engine's own flushes.
type noPayload struct{}

func (noPayload) acquireStart(req *wire.Msg)        {}
func (noPayload) grant(req, grant *wire.Msg)        {}
func (noPayload) onGrant(grant *wire.Msg) error     { return nil }
func (noPayload) release() error                    { return nil }
func (noPayload) arrive(arrive *wire.Msg)           {}
func (noPayload) masterAbsorb(arrivals []*wire.Msg) {}
func (noPayload) exit(m, exit *wire.Msg)            {}
func (noPayload) onExit(exit *wire.Msg) error       { return nil }
func (noPayload) postBarrier() error                { return nil }
