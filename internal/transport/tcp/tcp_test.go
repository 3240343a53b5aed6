package tcp

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/framebuf"
	"repro/internal/transport"
)

func cluster(t *testing.T, n int) []*Transport {
	t.Helper()
	ts, err := NewLoopbackCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
	})
	return ts
}

func TestSendRecv(t *testing.T) {
	ts := cluster(t, 2)
	if err := ts[0].Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	src, payload, ok := ts[1].Recv()
	if !ok || src != 0 || string(payload) != "hello" {
		t.Fatalf("Recv = %d %q %v", src, payload, ok)
	}
	// And the reverse direction, over a fresh dial.
	if err := ts[1].Send(0, []byte("back")); err != nil {
		t.Fatal(err)
	}
	src, payload, ok = ts[0].Recv()
	if !ok || src != 1 || string(payload) != "back" {
		t.Fatalf("Recv = %d %q %v", src, payload, ok)
	}
}

// TestSteadySendsAllocateNothing: a steady stream of frames to a peer, plain
// and batched, allocates nothing per frame — the vectored write reuses its
// vector, and the payload cycles sender, stream, receiver, free list.
func TestSteadySendsAllocateNothing(t *testing.T) {
	ts := cluster(t, 2)
	msg := []byte("a steady-state frame")
	batch := net.Buffers{[]byte("HH"), msg, msg}
	plain, batched := string(msg), "HH"+string(msg)+string(msg)
	recv := func(want string) {
		if _, p, ok := ts[1].Recv(); !ok || string(p) != want {
			t.Fatalf("Recv = %q ok=%v, want %q", p, ok, want)
		} else {
			framebuf.Put(p)
		}
	}
	round := func() {
		if err := ts[0].Send(1, append(framebuf.Get(), msg...)); err != nil {
			t.Fatal(err)
		}
		recv(plain)
		if err := ts[0].SendBatch(1, batch); err != nil {
			t.Fatal(err)
		}
		recv(batched)
	}
	round() // the dial, and the vector's first growth
	if a := testing.AllocsPerRun(200, round); a != 0 {
		t.Errorf("a plain frame and a batch to a peer allocate %v objects, want 0", a)
	}
}

func TestTransportShape(t *testing.T) {
	ts := cluster(t, 3)
	for i, tr := range ts {
		if tr.NumEndpoints() != 3 {
			t.Errorf("NumEndpoints = %d", tr.NumEndpoints())
		}
		if local := tr.Local(); len(local) != 1 || local[0] != i {
			t.Errorf("instance %d Local = %v", i, local)
		}
		if tr.Endpoint(i).ID() != i {
			t.Errorf("instance %d wrong endpoint id", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("remote endpoint handle handed out")
		}
	}()
	ts[0].Endpoint(1)
}

func TestFIFOPerSender(t *testing.T) {
	ts := cluster(t, 2)
	const msgs = 500
	for i := 0; i < msgs; i++ {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(i))
		if err := ts[0].Send(1, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		src, payload, ok := ts[1].Recv()
		if !ok || src != 0 {
			t.Fatalf("frame %d: src %d ok %v", i, src, ok)
		}
		if got := binary.LittleEndian.Uint32(payload); got != uint32(i) {
			t.Fatalf("frame %d arrived as %d: FIFO violated", i, got)
		}
	}
}

func TestConcurrentSendersManyPeers(t *testing.T) {
	ts := cluster(t, 4)
	const per = 200
	var wg sync.WaitGroup
	for src := 1; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := ts[src].Send(0, []byte{byte(src), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	recvd := make(map[byte]int)
	for i := 0; i < 3*per; i++ {
		src, payload, ok := ts[0].Recv()
		if !ok {
			t.Fatal("Recv failed mid-stream")
		}
		if int(payload[0]) != src {
			t.Fatalf("frame source %d arrived on stream from %d", payload[0], src)
		}
		if int(payload[1]) != recvd[payload[0]] {
			t.Fatalf("per-sender order violated: src %d got %d want %d",
				payload[0], payload[1], recvd[payload[0]])
		}
		recvd[payload[0]]++
	}
	wg.Wait()
}

func TestLoopbackIsFree(t *testing.T) {
	ts := cluster(t, 2)
	if err := ts[0].Send(0, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if tot := ts[0].Totals(); tot.Messages != 0 {
		t.Fatalf("loopback counted: %+v", tot)
	}
	if src, payload, ok := ts[0].Recv(); !ok || src != 0 || string(payload) != "self" {
		t.Fatal("loopback frame lost")
	}
}

func TestAccounting(t *testing.T) {
	ts := cluster(t, 2)
	if err := ts[0].Send(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := ts[0].Send(1, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if tot := ts[0].Totals(); tot.Messages != 2 || tot.Bytes != 150 {
		t.Fatalf("sender totals = %+v", tot)
	}
	if tot := ts[1].Totals(); tot.Messages != 0 {
		t.Fatalf("receiver counted sends: %+v", tot)
	}
}

func TestCloseUnblocksRecvAndFailsSend(t *testing.T) {
	ts := cluster(t, 2)
	done := make(chan bool)
	go func() {
		_, _, ok := ts[0].Recv()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ts[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned a frame after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := ts[0].Send(1, nil); err != transport.ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if err := ts[0].Close(); err != nil {
		t.Fatalf("second Close changed its answer: %v", err)
	}
}

// TestDeadPeerSurfacesOnSend: sending to a peer that is gone (listener
// closed, no retry window left) fails with a descriptive error rather
// than hanging.
func TestDeadPeerSurfacesOnSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	ts, err := New(Config{
		Self:        0,
		Peers:       []string{"127.0.0.1:0", deadAddr},
		Listener:    mustListen(t),
		DialTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	err = ts.Send(1, []byte("x"))
	if err == nil {
		t.Fatal("send to dead peer succeeded")
	}
	if !strings.Contains(err.Error(), "dial peer 1") {
		t.Errorf("error %v does not name the dead peer", err)
	}
	// The sender is poisoned: the failing frame is gone, so re-dialing
	// would deliver later frames after a gap (a FIFO violation). The
	// same error must come back immediately, with no new dial budget.
	start := time.Now()
	if err2 := ts.Send(1, []byte("y")); err2 != err {
		t.Errorf("second send = %v, want the sticky failure %v", err2, err)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("poisoned send took %v, want immediate failure", elapsed)
	}
}

// TestPeerDeathMidStreamSurfacesOnClose: a peer that dies after
// handshaking leaves a truncated stream; the receiver's Close must
// report it (the error path System.Close folds into its result).
func TestPeerDeathMidStreamSurfacesOnClose(t *testing.T) {
	ts, err := New(Config{Self: 0, Peers: []string{"127.0.0.1:0", "unused:1"}, Listener: mustListen(t)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var hello [helloBytes]byte
	binary.LittleEndian.PutUint32(hello[0:], helloMagic)
	binary.LittleEndian.PutUint32(hello[4:], 2)
	binary.LittleEndian.PutUint32(hello[8:], 1)
	if _, err := c.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var frame [6]byte
	// Announce an 8-byte frame but deliver only 2 bytes, then die.
	binary.LittleEndian.PutUint32(frame[0:], 8)
	frame[4], frame[5] = 0xde, 0xad
	if _, err := c.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Give the serve goroutine a moment to hit the truncated read.
	deadline := time.Now().Add(2 * time.Second)
	for {
		ts.errMu.Lock()
		n := len(ts.errs)
		ts.errMu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	err = ts.Close()
	if err == nil || !strings.Contains(err.Error(), "truncated mid-frame") {
		t.Fatalf("Close = %v, want truncated-stream error", err)
	}
}

// TestHostileStreamsRejected: non-peer magic, wrong cluster size, bogus
// source ids and oversized length prefixes all drop the connection and
// are reported at Close.
func TestHostileStreamsRejected(t *testing.T) {
	cases := []struct {
		name  string
		hello func() []byte
		frame []byte
		want  string
	}{
		{"bad magic", func() []byte {
			h := validHello(2, 1)
			binary.LittleEndian.PutUint32(h[0:], 0xbadc0de)
			return h
		}, nil, "non-peer"},
		{"wrong cluster size", func() []byte { return validHello(9, 1) }, nil, "cluster size 9"},
		{"source out of range", func() []byte { return validHello(2, 7) }, nil, "invalid source"},
		{"source claims self", func() []byte { return validHello(2, 0) }, nil, "invalid source"},
		{"oversized frame", func() []byte { return validHello(2, 1) },
			binary.LittleEndian.AppendUint32(nil, MaxFrameBytes+1), "exceeds limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, err := New(Config{Self: 0, Peers: []string{"127.0.0.1:0", "unused:1"}, Listener: mustListen(t)})
			if err != nil {
				t.Fatal(err)
			}
			c, err := net.Dial("tcp", ts.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Write(tc.hello()); err != nil {
				t.Fatal(err)
			}
			if tc.frame != nil {
				if _, err := c.Write(tc.frame); err != nil {
					t.Fatal(err)
				}
			}
			// The transport closes the hostile connection; observe EOF.
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil {
				t.Error("hostile connection not dropped")
			}
			c.Close()
			err = ts.Close()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Close = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Self: 0, Peers: nil}); err == nil {
		t.Error("empty peer list accepted")
	}
	if _, err := New(Config{Self: 3, Peers: []string{"a:1", "b:2"}}); err == nil {
		t.Error("out-of-range self accepted")
	}
	if _, err := New(Config{Self: 0, Peers: []string{"127.0.0.1:0", ""}}); err == nil {
		t.Error("empty peer address accepted")
	}
}

func validHello(size, src uint32) []byte {
	h := make([]byte, helloBytes)
	binary.LittleEndian.PutUint32(h[0:], helloMagic)
	binary.LittleEndian.PutUint32(h[4:], size)
	binary.LittleEndian.PutUint32(h[8:], src)
	return h
}

func mustListen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// TestSendBatchOneFrame: a batch goes out as ONE length-prefixed stream
// frame (the peer receives the concatenation as a single payload), is
// accounted as its message count in one frame, and interleaves in FIFO
// order with plain sends on the same stream. The frame buffers are only
// borrowed: reusing them after SendBatch must not corrupt the stream.
func TestSendBatchOneFrame(t *testing.T) {
	ts := cluster(t, 2)
	hdr := []byte("HH")
	m1 := []byte("first-message")
	m2 := []byte("second")
	if err := ts[0].Send(1, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if err := ts[0].SendBatch(1, [][]byte{hdr, m1, m2}); err != nil {
		t.Fatal(err)
	}
	// Borrowed buffers: scribble over them after the call returns.
	hdr[0], m1[0], m2[0] = 'x', 'x', 'x'
	if err := ts[0].Send(1, []byte("after")); err != nil {
		t.Fatal(err)
	}

	if _, p, ok := ts[1].Recv(); !ok || string(p) != "before" {
		t.Fatalf("first frame = %q ok=%v", p, ok)
	}
	_, p, ok := ts[1].Recv()
	if !ok || string(p) != "HHfirst-messagesecond" {
		t.Fatalf("batch frame = %q ok=%v, want concatenation in one payload", p, ok)
	}
	if _, p, ok := ts[1].Recv(); !ok || string(p) != "after" {
		t.Fatalf("frame after batch = %q ok=%v", p, ok)
	}

	tot := ts[0].Totals()
	want := transport.Stats{
		Messages: 2 + 2, Frames: 3, Batches: 1,
		Bytes:    int64(len("before") + len("after") + len("HHfirst-messagesecond")),
		RawBytes: int64(len("before") + len("after") + len("HHfirst-messagesecond")),
	}
	if tot != want {
		t.Fatalf("totals = %+v, want %+v", tot, want)
	}

	// Loopback batches are free and still deliver one concatenated hop.
	if err := ts[1].SendBatch(1, [][]byte{[]byte("A"), []byte("B"), []byte("C")}); err != nil {
		t.Fatal(err)
	}
	if tot := ts[1].Totals(); tot.Messages != 0 || tot.Batches != 0 {
		t.Fatalf("loopback batch counted: %+v", tot)
	}
	if _, p, ok := ts[1].Recv(); !ok || string(p) != "ABC" {
		t.Fatalf("loopback batch = %q ok=%v", p, ok)
	}
}
