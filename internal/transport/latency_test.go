package transport

import (
	"testing"
	"time"
)

// TestEstimateStatsChargesFrames pins the charging rule for snapshots
// produced by the batching pipeline: the fixed per-message cost is paid
// once per physical frame (not per coalesced message), plus the wire
// bytes.
func TestEstimateStatsChargesFrames(t *testing.T) {
	m := LatencyModel{PerMessage: time.Millisecond, PerKByte: 100 * time.Microsecond}
	s := Stats{
		Messages: 100,
		Frames:   10,
		Batches:  10,
		Bytes:    8 * 1024,
	}
	got := m.EstimateStats(s)
	want := m.Estimate(s.Frames, s.Bytes)
	if got != want {
		t.Fatalf("EstimateStats = %v, want %v (frames × PerMessage + wire bytes)", got, want)
	}
	if perMsg := m.Estimate(s.Messages, s.Bytes); got >= perMsg {
		t.Errorf("EstimateStats %v not cheaper than per-message charging %v: batching must buy wall-clock", got, perMsg)
	}

	// Snapshots from sources that predate frame counting carry Frames=0
	// and fall back to the message count.
	legacy := Stats{Messages: 100, Bytes: 8 * 1024}
	if got, want := m.EstimateStats(legacy), m.Estimate(100, 8*1024); got != want {
		t.Fatalf("legacy snapshot EstimateStats = %v, want %v", got, want)
	}
}
