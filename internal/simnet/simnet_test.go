package simnet

import (
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// Network must satisfy the runtime's transport abstraction.
var _ transport.Transport = (*Network)(nil)

func TestSendRecv(t *testing.T) {
	net := New(2)
	defer net.Close()
	a, b := net.Endpoint(0), net.Endpoint(1)
	if err := a.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	src, payload, ok := b.Recv()
	if !ok {
		t.Fatal("Recv failed")
	}
	if src != 0 || string(payload) != "hello" {
		t.Fatalf("frame = src %d payload %q", src, payload)
	}
}

func TestLocalCoversAllEndpoints(t *testing.T) {
	net := New(3)
	defer net.Close()
	if n := net.NumEndpoints(); n != 3 {
		t.Fatalf("NumEndpoints = %d", n)
	}
	local := net.Local()
	if len(local) != 3 {
		t.Fatalf("Local = %v, want all 3 endpoints", local)
	}
	for i, id := range local {
		if id != i {
			t.Fatalf("Local = %v, want ascending ids", local)
		}
		if got := net.Endpoint(id).ID(); got != id {
			t.Fatalf("Endpoint(%d).ID() = %d", id, got)
		}
	}
}

func TestFIFOPerSender(t *testing.T) {
	net := New(2)
	defer net.Close()
	a, b := net.Endpoint(0), net.Endpoint(1)
	for i := 0; i < 100; i++ {
		if err := a.Send(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		_, payload, ok := b.Recv()
		if !ok || payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: %v ok=%v", i, payload, ok)
		}
	}
}

func TestAccounting(t *testing.T) {
	net := New(3)
	defer net.Close()
	a := net.Endpoint(0)
	if err := a.Send(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	tot := net.Totals()
	if tot.Messages != 2 || tot.Bytes != 150 {
		t.Fatalf("totals = %+v", tot)
	}
	by := net.SentBy(0)
	if by.Messages != 2 || by.Bytes != 150 {
		t.Fatalf("SentBy = %+v", by)
	}
	if s := net.SentBy(1); s.Messages != 0 {
		t.Fatalf("endpoint 1 sent nothing but counted %+v", s)
	}
}

func TestLoopbackIsFree(t *testing.T) {
	net := New(2)
	defer net.Close()
	a := net.Endpoint(0)
	if err := a.Send(0, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if tot := net.Totals(); tot.Messages != 0 {
		t.Fatalf("loopback counted: %+v", tot)
	}
	if _, payload, ok := a.Recv(); !ok || string(payload) != "self" {
		t.Fatal("loopback frame lost")
	}
}

func TestSendValidation(t *testing.T) {
	net := New(2)
	defer net.Close()
	if err := net.Endpoint(0).Send(5, nil); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	net := New(1)
	done := make(chan bool)
	go func() {
		_, _, ok := net.Endpoint(0).Recv()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	if err := net.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Recv returned a frame after close")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := net.Endpoint(0).Send(0, nil); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestTryRecv(t *testing.T) {
	net := New(1)
	defer net.Close()
	e := net.Endpoint(0).(*Endpoint)
	if _, _, ok := e.TryRecv(); ok {
		t.Fatal("TryRecv returned a frame from an empty queue")
	}
	if err := e.Send(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, payload, ok := e.TryRecv(); !ok || string(payload) != "x" {
		t.Fatal("TryRecv missed a queued frame")
	}
}

func TestConcurrentSenders(t *testing.T) {
	net := New(4)
	defer net.Close()
	const per = 200
	var wg sync.WaitGroup
	for src := 1; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			e := net.Endpoint(src)
			for i := 0; i < per; i++ {
				if err := e.Send(0, []byte{byte(src), byte(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	recvd := make(map[byte]int)
	e := net.Endpoint(0)
	for i := 0; i < 3*per; i++ {
		_, payload, ok := e.Recv()
		if !ok {
			t.Fatal("Recv failed mid-stream")
		}
		// Per-sender FIFO: sequence numbers ascend within a source.
		if int(payload[1]) != recvd[payload[0]] {
			t.Fatalf("per-sender order violated: src %d got %d want %d",
				payload[0], payload[1], recvd[payload[0]])
		}
		recvd[payload[0]]++
	}
	wg.Wait()
	if tot := net.Totals(); tot.Messages != 3*per {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestBadEndpointPanics(t *testing.T) {
	net := New(2)
	defer net.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("bad endpoint index accepted")
		}
	}()
	net.Endpoint(9)
}

// TestBatchedDeliveryOneHop pins the batched latency model: a batch of k
// messages is delivered as ONE network hop — one Recv payload (the
// concatenation), counted as k messages in one frame — so the latency
// model charges one fixed per-frame cost plus the byte cost, not k
// per-frame costs. This is where the paper's message-count savings
// become simulated wall-clock savings.
func TestBatchedDeliveryOneHop(t *testing.T) {
	net := New(2)
	defer net.Close()
	a, b := net.Endpoint(0), net.Endpoint(1)
	bs, ok := a.(transport.BatchSender)
	if !ok {
		t.Fatal("simnet endpoint does not implement BatchSender")
	}
	hdr := []byte("batchhdr")
	m1 := make([]byte, 100)
	m2 := make([]byte, 200)
	m3 := make([]byte, 724)
	if err := bs.SendBatch(1, [][]byte{hdr, m1, m2, m3}); err != nil {
		t.Fatal(err)
	}
	src, payload, ok := b.Recv()
	if !ok || src != 0 {
		t.Fatalf("Recv = src %d ok %v", src, ok)
	}
	if len(payload) != len(hdr)+1024 {
		t.Fatalf("batch delivered as %d bytes, want %d (one concatenated hop)", len(payload), len(hdr)+1024)
	}
	tot := net.Totals()
	want := transport.Stats{Messages: 3, Frames: 1, Batches: 1, Bytes: int64(len(hdr)) + 1024, RawBytes: int64(len(hdr)) + 1024}
	if tot != want {
		t.Fatalf("totals = %+v, want %+v", tot, want)
	}

	// A loopback batch moves no counters, like loopback sends.
	if err := bs.SendBatch(0, [][]byte{hdr, m1}); err != nil {
		t.Fatal(err)
	}
	if tot2 := net.Totals(); tot2 != want {
		t.Fatalf("loopback batch counted traffic: %+v", tot2)
	}
	if _, payload, ok := a.Recv(); !ok || len(payload) != len(hdr)+100 {
		t.Fatalf("loopback batch payload = %d bytes ok=%v", len(payload), ok)
	}
}
