// Package tcp is the live DSM runtime's real interconnect: a
// transport.Transport implementation that frames the runtime's encoded
// wire.Msg payloads over length-prefixed TCP streams, so a DSM cluster
// — under any of the five consistency protocols — runs across OS
// processes and machines instead of inside one process.
//
// Topology: every endpoint of the cluster is one Transport instance
// (normally one per OS process), identified by its index into the shared
// peer address list. Connections are simplex and lazy: an instance dials
// a peer the first time it sends to it and uses that connection for
// sending only; connections accepted from its listener are used for
// receiving only. One TCP stream per (sender, receiver) pair preserves
// the per-sender FIFO order the protocol engines rely on, exactly like
// the simulated interconnect.
//
// Stream format: a 12-byte hello (magic, cluster size, sender id) when a
// connection opens, then one frame per message — a 4-byte little-endian
// payload length followed by the payload bytes (an encoded wire.Msg,
// opaque to this layer). Hostile or corrupt prefixes are bounded by
// MaxFrameBytes; decoding hardening for the payloads themselves lives in
// wire.Decode.
package tcp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framebuf"
	"repro/internal/transport"
)

const (
	// helloMagic opens every stream ("LRCT"), so a stray connection from
	// something that is not a peer is rejected before any framing.
	helloMagic = 0x4C524354
	// helloBytes is the stream preamble size: magic(4) size(4) src(4).
	helloBytes = 12
	// MaxFrameBytes bounds one framed message. Runtime messages carry at
	// most a few pages plus diffs; a length prefix beyond this is treated
	// as a corrupt or hostile stream and the connection is dropped.
	MaxFrameBytes = 64 << 20
)

// Config describes one endpoint's attachment to a TCP DSM cluster.
type Config struct {
	// Self is this instance's endpoint id: its index in Peers.
	Self int
	// Peers lists every endpoint's listen address ("host:port"), in
	// endpoint-id order. Every instance of the cluster must be built from
	// the same list.
	Peers []string
	// Listener optionally supplies a pre-bound listener for Peers[Self]
	// (the loopback harness binds ephemeral ports first so the peer list
	// can be completed before any instance starts). When nil, New listens
	// on Peers[Self].
	Listener net.Listener
	// DialTimeout is the total budget for reaching a peer, covering
	// startup races where the peer's listener is not up yet (dial
	// attempts are retried until the budget expires). Default 10s.
	DialTimeout time.Duration
	// QueueDepth is the incoming frame queue capacity. Default 4096.
	QueueDepth int
}

type frame struct {
	src     int
	payload []byte
}

// sender is the lazily-dialed send-side connection to one peer. Its
// mutex serializes concurrent sends (application and handler goroutines
// of one node both send), preserving per-pair FIFO on the stream. A
// failed send poisons the sender permanently: the failing frame is
// gone, so silently re-dialing would deliver later frames after a gap —
// a per-sender FIFO violation the protocol engines cannot detect.
// Fail-stop (every later send returns the original error) keeps a dead
// peer loud instead of corrupting directory order.
//
// prefix, vec and bufs are the vectored-write scratch (guarded by mu):
// each frame goes out as one writev of the length prefix and the payload,
// so the hot path copies nothing and issues one syscall per frame. vec
// keeps the vector's backing array from frame to frame; bufs is the
// header the write consumes.
type sender struct {
	addr   string
	mu     sync.Mutex
	conn   net.Conn
	broken error
	prefix [4]byte
	vec    net.Buffers
	bufs   net.Buffers
}

// Transport is one endpoint of a TCP DSM cluster. It implements both
// transport.Transport (serving exactly one local endpoint) and
// transport.Endpoint (its own).
type Transport struct {
	self        int
	peers       []string
	ln          net.Listener
	dialTimeout time.Duration

	recvq chan frame

	ctx       context.Context
	cancel    context.CancelFunc
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error

	msgs  atomic.Int64
	bytes atomic.Int64

	senders []*sender

	wg       sync.WaitGroup
	connMu   sync.Mutex
	accepted []net.Conn

	errMu sync.Mutex
	errs  []error
}

var _ transport.Transport = (*Transport)(nil)
var _ transport.Endpoint = (*Transport)(nil)

// New starts endpoint cfg.Self of the cluster cfg.Peers: it listens for
// peer connections immediately and dials peers on first send. Callers
// must Close the transport; Close reports receive-side connection errors
// accumulated while it ran.
func New(cfg Config) (*Transport, error) {
	n := len(cfg.Peers)
	if n == 0 {
		return nil, errors.New("tcp: empty peer list")
	}
	if cfg.Self < 0 || cfg.Self >= n {
		return nil, fmt.Errorf("tcp: self index %d outside peer list [0,%d)", cfg.Self, n)
	}
	for i, addr := range cfg.Peers {
		if addr == "" {
			return nil, fmt.Errorf("tcp: empty address for peer %d", i)
		}
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.Self])
		if err != nil {
			return nil, fmt.Errorf("tcp: endpoint %d listen: %w", cfg.Self, err)
		}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 10 * time.Second
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &Transport{
		self:        cfg.Self,
		peers:       cfg.Peers,
		ln:          ln,
		dialTimeout: cfg.DialTimeout,
		recvq:       make(chan frame, cfg.QueueDepth),
		ctx:         ctx,
		cancel:      cancel,
		closed:      make(chan struct{}),
		senders:     make([]*sender, n),
	}
	for i, addr := range cfg.Peers {
		if i != cfg.Self {
			t.senders[i] = &sender{addr: addr}
		}
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// NumEndpoints returns the cluster size.
func (t *Transport) NumEndpoints() int { return len(t.peers) }

// Local returns the single endpoint id this process serves.
func (t *Transport) Local() []int { return []int{t.self} }

// Endpoint returns endpoint i's handle; only the instance's own endpoint
// is local.
func (t *Transport) Endpoint(i int) transport.Endpoint {
	if i != t.self {
		panic(fmt.Sprintf("tcp: endpoint %d is not local (this instance serves endpoint %d)", i, t.self))
	}
	return t
}

// ID returns the endpoint's index.
func (t *Transport) ID() int { return t.self }

// Addr returns the listener's actual address (useful when the peer list
// was built from ephemeral ports).
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Totals returns this endpoint's send counters. Loopback sends are free,
// matching the simulated interconnect's accounting.
func (t *Transport) Totals() transport.Stats {
	msgs, bytes := t.msgs.Load(), t.bytes.Load()
	// Frames and RawBytes repeat Messages and Bytes for bench/lrcbench.
	return transport.Stats{Messages: msgs, Frames: msgs, Bytes: bytes, RawBytes: bytes}
}

// noteErr records a receive-side connection failure for Close to report:
// a peer dying mid-frame must surface, not vanish with the connection.
func (t *Transport) noteErr(err error) {
	select {
	case <-t.closed:
		// Teardown-induced read failures are expected.
		return
	default:
	}
	t.errMu.Lock()
	t.errs = append(t.errs, err)
	t.errMu.Unlock()
}

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.connMu.Lock()
		select {
		case <-t.closed:
			t.connMu.Unlock()
			c.Close()
			return
		default:
		}
		t.accepted = append(t.accepted, c)
		t.connMu.Unlock()
		setNoDelay(c)
		t.wg.Add(1)
		go t.serveConn(c)
	}
}

// serveConn demultiplexes one peer's send stream into the receive queue.
func (t *Transport) serveConn(c net.Conn) {
	defer t.wg.Done()
	defer c.Close()
	var hello [helloBytes]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		t.noteErr(fmt.Errorf("tcp: endpoint %d: reading stream hello: %w", t.self, err))
		return
	}
	if magic := binary.LittleEndian.Uint32(hello[0:]); magic != helloMagic {
		t.noteErr(fmt.Errorf("tcp: endpoint %d: connection from non-peer (magic %#x)", t.self, magic))
		return
	}
	if size := int(binary.LittleEndian.Uint32(hello[4:])); size != len(t.peers) {
		t.noteErr(fmt.Errorf("tcp: endpoint %d: peer configured for cluster size %d, ours is %d", t.self, size, len(t.peers)))
		return
	}
	src := int(binary.LittleEndian.Uint32(hello[8:]))
	if src < 0 || src >= len(t.peers) || src == t.self {
		t.noteErr(fmt.Errorf("tcp: endpoint %d: stream claims invalid source %d", t.self, src))
		return
	}
	var lenbuf [4]byte
	for {
		if _, err := io.ReadFull(c, lenbuf[:]); err != nil {
			if err != io.EOF {
				t.noteErr(fmt.Errorf("tcp: endpoint %d: stream from %d: %w", t.self, src, err))
			}
			return
		}
		size := binary.LittleEndian.Uint32(lenbuf[:])
		if size > MaxFrameBytes {
			t.noteErr(fmt.Errorf("tcp: endpoint %d: stream from %d: frame of %d bytes exceeds limit %d", t.self, src, size, MaxFrameBytes))
			return
		}
		// From the free list the receiver returns frames to: the steady
		// state reads into recycled buffers.
		payload := framebuf.GetLen(int(size))
		if _, err := io.ReadFull(c, payload); err != nil {
			t.noteErr(fmt.Errorf("tcp: endpoint %d: stream from %d truncated mid-frame: %w", t.self, src, err))
			return
		}
		select {
		case t.recvq <- frame{src: src, payload: payload}:
		case <-t.closed:
			return
		}
	}
}

// setNoDelay disables Nagle's algorithm: the runtime's traffic is
// request/response chains of small frames, exactly the pattern where
// Nagle and delayed ACKs conspire into 40ms stalls per exchange (the SC
// engine's ownership ping-pong slows by orders of magnitude without
// this).
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// dial reaches addr, retrying connection-refused until the dial budget
// expires: peers of a cluster start in arbitrary order, so the first
// send to a peer may race its listener coming up.
func (t *Transport) dial(addr string) (net.Conn, error) {
	deadline := time.Now().Add(t.dialTimeout)
	d := net.Dialer{Timeout: time.Second}
	var lastErr error
	for {
		select {
		case <-t.closed:
			return nil, transport.ErrClosed
		default:
		}
		c, err := d.DialContext(t.ctx, "tcp", addr)
		if err == nil {
			setNoDelay(c)
			return c, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, lastErr
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// poison records a send failure on s and makes it sticky (see sender).
// Failures racing our own shutdown report plain closure instead. Caller
// holds s.mu.
func (t *Transport) poison(s *sender, err error) error {
	select {
	case <-t.closed:
		return transport.ErrClosed
	default:
	}
	s.broken = err
	return err
}

// connLocked returns the sender's live stream, dialing the peer and
// writing the hello on first use. Caller holds s.mu.
func (t *Transport) connLocked(s *sender, dst int) (net.Conn, error) {
	if s.conn != nil {
		return s.conn, nil
	}
	c, err := t.dial(s.addr)
	if err != nil {
		return nil, t.poison(s, fmt.Errorf("tcp: endpoint %d: dial peer %d (%s): %w", t.self, dst, s.addr, err))
	}
	var hello [helloBytes]byte
	binary.LittleEndian.PutUint32(hello[0:], helloMagic)
	binary.LittleEndian.PutUint32(hello[4:], uint32(len(t.peers)))
	binary.LittleEndian.PutUint32(hello[8:], uint32(t.self))
	if _, err := c.Write(hello[:]); err != nil {
		c.Close()
		return nil, t.poison(s, fmt.Errorf("tcp: endpoint %d: hello to peer %d: %w", t.self, dst, err))
	}
	s.conn = c
	return c, nil
}

// writeFrame sends payload as one length-prefixed frame in a single
// vectored write: the mutex keeps another goroutine's frame from
// interleaving, writev keeps it one syscall, and nothing is copied.
// Caller holds s.mu.
func (t *Transport) writeFrame(s *sender, dst int, payload []byte) error {
	c, err := t.connLocked(s, dst)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(s.prefix[:], uint32(len(payload)))
	s.vec = append(s.vec[:0], s.prefix[:], payload)
	// WriteTo advances the header it is called on to the end of the
	// vector, so it gets a copy; it also nils what it wrote, so vec pins no
	// payload once the frame is out.
	s.bufs = s.vec
	if _, err := s.bufs.WriteTo(c); err != nil {
		c.Close()
		s.conn = nil
		return t.poison(s, fmt.Errorf("tcp: endpoint %d: send to peer %d: %w", t.self, dst, err))
	}
	return nil
}

// Send delivers payload to endpoint dst over the per-peer stream,
// dialing it on first use. Loopback delivery bypasses the socket and
// counts no traffic. Ownership of payload transfers to the transport:
// the loopback path enqueues the buffer itself, the stream path recycles
// it into the frame free list once it is written — the list the read
// loops draw from, so a steady exchange allocates no frame at either end.
func (t *Transport) Send(dst int, payload []byte) error {
	if dst < 0 || dst >= len(t.peers) {
		return fmt.Errorf("tcp: destination %d outside [0,%d)", dst, len(t.peers))
	}
	select {
	case <-t.closed:
		return transport.ErrClosed
	default:
	}
	if dst == t.self {
		select {
		case t.recvq <- frame{src: t.self, payload: payload}:
			return nil
		case <-t.closed:
			return transport.ErrClosed
		}
	}
	s := t.senders[dst]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken != nil {
		return s.broken
	}
	if err := t.writeFrame(s, dst, payload); err != nil {
		return err
	}
	t.msgs.Add(1)
	t.bytes.Add(int64(len(payload)))
	framebuf.Put(payload)
	return nil
}

// Recv blocks until a payload arrives for this endpoint or the transport
// closes (ok=false), draining frames already delivered first.
func (t *Transport) Recv() (src int, payload []byte, ok bool) {
	select {
	case f := <-t.recvq:
		return f.src, f.payload, true
	case <-t.closed:
		select {
		case f := <-t.recvq:
			return f.src, f.payload, true
		default:
			return 0, nil, false
		}
	}
}

// Close shuts the endpoint down: the listener and every connection are
// closed, pending Recvs drain and return ok=false, and any teardown or
// accumulated receive-side error is returned. Idempotent.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.cancel()
		var errs []error
		if err := t.ln.Close(); err != nil {
			errs = append(errs, fmt.Errorf("tcp: endpoint %d: closing listener: %w", t.self, err))
		}
		for i, s := range t.senders {
			if s == nil {
				continue
			}
			s.mu.Lock()
			if s.conn != nil {
				if err := s.conn.Close(); err != nil {
					errs = append(errs, fmt.Errorf("tcp: endpoint %d: closing stream to peer %d: %w", t.self, i, err))
				}
				s.conn = nil
			}
			s.mu.Unlock()
		}
		t.connMu.Lock()
		for _, c := range t.accepted {
			c.Close() // unblocks serveConn readers; teardown errors expected
		}
		t.connMu.Unlock()
		t.wg.Wait()
		t.errMu.Lock()
		errs = append(errs, t.errs...)
		t.errMu.Unlock()
		t.closeErr = errors.Join(errs...)
	})
	return t.closeErr
}

// NewLoopbackCluster starts a full n-endpoint cluster in this process,
// one Transport per endpoint, listening on ephemeral 127.0.0.1 ports —
// the multi-listener harness the cross-transport differential tests and
// benchmarks drive the DSM over. Callers own each transport's lifecycle
// (normally one dsm.System per transport closes it).
func NewLoopbackCluster(n int) ([]*Transport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tcp: cluster size %d must be positive", n)
	}
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	fail := func(err error) ([]*Transport, error) {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(fmt.Errorf("tcp: loopback listener %d: %w", i, err))
		}
		listeners[i] = ln
		peers[i] = ln.Addr().String()
	}
	ts := make([]*Transport, n)
	for i := range ts {
		tr, err := New(Config{Self: i, Peers: peers, Listener: listeners[i]})
		if err != nil {
			for _, prev := range ts[:i] {
				prev.Close()
			}
			for _, ln := range listeners[i:] {
				ln.Close()
			}
			return nil, err
		}
		listeners[i] = nil // owned by the transport now
		ts[i] = tr
	}
	return ts, nil
}
