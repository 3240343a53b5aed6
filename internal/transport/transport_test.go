package transport

import "testing"

func TestStatsAdd(t *testing.T) {
	s := Stats{Messages: 3, Bytes: 100}
	s.Add(Stats{Messages: 2, Bytes: 50})
	if s.Messages != 5 || s.Bytes != 150 {
		t.Errorf("Add = %+v", s)
	}
}

// fallbackEndpoint implements only the core Endpoint interface, so the
// SendBatch adapter must concatenate and fall back to Send.
type fallbackEndpoint struct {
	dst     int
	payload []byte
}

func (f *fallbackEndpoint) ID() int { return 0 }
func (f *fallbackEndpoint) Send(dst int, payload []byte) error {
	f.dst, f.payload = dst, payload
	return nil
}
func (f *fallbackEndpoint) Recv() (int, []byte, bool) { return 0, nil, false }

func TestSendBatchAdapterFallback(t *testing.T) {
	ep := &fallbackEndpoint{}
	frames := [][]byte{[]byte("hdr"), []byte("one"), []byte("two")}
	if err := SendBatch(ep, 3, frames); err != nil {
		t.Fatal(err)
	}
	if ep.dst != 3 || string(ep.payload) != "hdronetwo" {
		t.Fatalf("fallback sent %q to %d", ep.payload, ep.dst)
	}
}

func TestStatsAddFramesBatches(t *testing.T) {
	s := Stats{Messages: 3, Frames: 2, Batches: 1, Bytes: 100}
	s.Add(Stats{Messages: 5, Frames: 1, Batches: 1, Bytes: 50})
	want := Stats{Messages: 8, Frames: 3, Batches: 2, Bytes: 150}
	if s != want {
		t.Fatalf("Add = %+v, want %+v", s, want)
	}
}
