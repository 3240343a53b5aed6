package dsm

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// failingCloseTransport wraps a working transport but fails teardown,
// standing in for a TCP instance whose peer died mid-stream.
type failingCloseTransport struct {
	transport.Transport
	err error
}

func (f *failingCloseTransport) Close() error {
	f.Transport.Close()
	return f.err
}

// TestCloseFoldsTransportErrors: a transport teardown failure surfaces
// through System.Close alongside any recorded protocol errors, instead
// of vanishing.
func TestCloseFoldsTransportErrors(t *testing.T) {
	boom := errors.New("peer 1 stream truncated mid-frame")
	s, err := New(Config{
		Procs: 2, SpaceSize: 4096, PageSize: 512, Mode: LazyInvalidate,
		Transport: &failingCloseTransport{Transport: simnet.New(2), err: boom},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Node(0).noteErr("lock 3 grant to 1", errors.New("send failed"))
	cerr := s.Close()
	if cerr == nil {
		t.Fatal("Close returned nil despite transport and protocol errors")
	}
	if !errors.Is(cerr, boom) {
		t.Errorf("Close error %q does not fold the transport teardown error", cerr)
	}
	if !strings.Contains(cerr.Error(), "lock 3 grant to 1") {
		t.Errorf("Close error %q lost the recorded protocol error", cerr)
	}
	if again := s.Close(); !errors.Is(again, boom) {
		t.Errorf("second Close = %v, want the same folded error", again)
	}
}

// TestTransportEndpointCountValidated: a transport spanning the wrong
// cluster size is rejected at construction.
func TestTransportEndpointCountValidated(t *testing.T) {
	net := simnet.New(3)
	defer net.Close()
	_, err := New(Config{
		Procs: 2, SpaceSize: 4096, PageSize: 512, Mode: LazyInvalidate,
		Transport: net,
	})
	if err == nil || !strings.Contains(err.Error(), "transport spans 3 endpoints") {
		t.Fatalf("err = %v, want endpoint-count mismatch", err)
	}
}

// TestRemoteNodePanics: asking a System for a node another process hosts
// is a caller bug and panics with a message naming the local set.
func TestRemoteNodePanics(t *testing.T) {
	cluster, err := tcp.NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := New(Config{
		Procs: 2, SpaceSize: 4096, PageSize: 512, Mode: LazyInvalidate,
		Transport: cluster[0],
	})
	if err != nil {
		cluster[0].Close()
		cluster[1].Close()
		t.Fatal(err)
	}
	defer s0.Close()
	defer cluster[1].Close()
	if !s0.IsLocal(0) || s0.IsLocal(1) {
		t.Errorf("locality wrong: IsLocal(0)=%v IsLocal(1)=%v", s0.IsLocal(0), s0.IsLocal(1))
	}
	if got := len(s0.Local()); got != 1 {
		t.Errorf("Local() has %d nodes, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("remote node handle handed out")
		}
	}()
	s0.Node(1)
}

// TestCounterOverTCPCluster runs the migratory counter across two
// Systems joined only by real TCP streams, under every protocol engine:
// the protocol-independent machinery (locks, barriers, rpc plumbing)
// must behave identically across transports.
func TestCounterOverTCPCluster(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		const procs, iters = 3, 10
		cluster, err := tcp.NewLoopbackCluster(procs)
		if err != nil {
			t.Fatal(err)
		}
		systems := make([]*System, procs)
		for i, tr := range cluster {
			systems[i], err = New(Config{
				Procs: procs, SpaceSize: 16 * 1024, PageSize: 1024, Mode: mode,
				Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		defer func() {
			for _, s := range systems {
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			}
		}()

		countUnderLock(t, systems, 1, 0, 0, iters)
		// Real traffic crossed the sockets (loopback sends are free, and
		// the nodes live in different systems).
		var total int64
		for _, s := range systems {
			total += s.NetStats().Messages
		}
		if total == 0 {
			t.Error("no messages crossed the TCP cluster")
		}
	})
}
