package transport_test

import (
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wire"
)

// benchPingPong measures one round trip of a realistic runtime frame (an
// encoded page-response message) between two endpoints — the
// interconnect cost every protocol operation pays, simnet vs TCP.
func benchPingPong(b *testing.B, a, z transport.Endpoint) {
	payload := (&wire.Msg{
		Kind: wire.KPageResp, Seq: 1, A: 7, Data: make([]byte, 4096),
	}).EncodeAppend(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			src, p, ok := z.Recv()
			if !ok {
				return
			}
			if err := z.Send(src, p); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(2 * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(z.ID(), payload); err != nil {
			b.Fatal(err)
		}
		// The transport owns what it was sent; the echo is ours to resend.
		var ok bool
		if _, payload, ok = a.Recv(); !ok {
			b.Fatal("recv failed")
		}
	}
	b.StopTimer()
}

// BenchmarkTransportSimnet: the in-process interconnect's round trip.
func BenchmarkTransportSimnet(b *testing.B) {
	net := simnet.New(2)
	defer net.Close()
	benchPingPong(b, net.Endpoint(0), net.Endpoint(1))
}

// BenchmarkTransportTCP: the same round trip over real loopback TCP
// streams — the per-message overhead a cross-process DSM deployment adds.
func BenchmarkTransportTCP(b *testing.B) {
	cluster, err := tcp.NewLoopbackCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		for _, t := range cluster {
			t.Close()
		}
	}()
	benchPingPong(b, cluster[0].Endpoint(0), cluster[1].Endpoint(1))
}
