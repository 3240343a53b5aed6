package transport

import "testing"

func TestStatsAdd(t *testing.T) {
	s := Stats{Messages: 3, Bytes: 100}
	s.Add(Stats{Messages: 2, Bytes: 50})
	if s.Messages != 5 || s.Bytes != 150 {
		t.Errorf("Add = %+v", s)
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
