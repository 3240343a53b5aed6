package proto

// Message-size model. The paper measures "amount of data"; to reproduce it
// we need one explicit, documented model of what each protocol message
// carries on the wire. The trace-driven simulator (which never
// materializes page contents) sizes every message with these constants.
// The live runtime's encoder (internal/wire) does not imitate them: it
// codes the same fields as varints and may undercut the model, which is a
// fixed-width accounting, not a format (a root gate bounds live bytes
// against it).
//
// All messages carry a fixed header (source, destination, type, length,
// sequence number). Payloads:
//
//	lock request        lock id + requester + (lazy) acquirer's vector clock
//	lock forward        same as request (manager -> holder)
//	lock grant          lock id + (lazy) releaser's clock + write notices
//	write notice        (proc, interval, page) triple
//	invalidation        page id + epoch
//	diff request        page id + requester clock summary
//	diff response       diffs (page.DiffHeaderBytes + runs + payload)
//	page request        page id
//	page response       page id + page contents (+ piggybacked diffs)
//	barrier arrive      barrier id + (lazy) clock + notices
//	barrier exit        barrier id + (lazy) merged clock + notices
//	update (eager)      diffs
//	ack                 header only
const (
	// MsgHeaderBytes is the fixed wire header on every message.
	MsgHeaderBytes = 24

	// LockReqBytes is the payload of a lock request/forward, excluding the
	// acquirer's vector clock (lazy protocols append VCBytes(n)).
	LockReqBytes = 8

	// LockGrantBytes is the payload of a lock grant, excluding clock and
	// piggybacked notices/diffs.
	LockGrantBytes = 8

	// WriteNoticeBytes is the wire size of one write notice: creating
	// processor (2), interval index (4), page id (4), packed with the
	// creating interval's clock carried once per interval elsewhere.
	WriteNoticeBytes = 12

	// IntervalHeaderBytes is carried once per distinct interval whose
	// notices travel in a message (proc, index, plus the interval's clock
	// is reconstructible at the receiver from its own log, so only the
	// 8-byte id travels).
	IntervalHeaderBytes = 8

	// InvalBytes is the wire size of one eager invalidation record.
	InvalBytes = 8

	// DiffReqBytes is the payload of a diff request, excluding the
	// requester's clock.
	DiffReqBytes = 8

	// PageReqBytes is the payload of a page request.
	PageReqBytes = 8

	// BarrierBytes is the payload of a barrier arrive/exit message,
	// excluding piggybacked clocks and notices.
	BarrierBytes = 8

	// AckBytes is the payload of an acknowledgment.
	AckBytes = 0
)

// VCBytes returns the wire size of a vector clock for n processors.
func VCBytes(n int) int { return 4 * n }

// NoticesBytes returns the wire size of notices write notices spread over
// intervals distinct intervals.
func NoticesBytes(notices, intervals int) int {
	return notices*WriteNoticeBytes + intervals*IntervalHeaderBytes
}
