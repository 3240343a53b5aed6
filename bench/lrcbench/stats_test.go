package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {100, 1000}, {0.01, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g of 1..1000 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of no samples = %d, want 0", got)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	vals := []float64{9, 1, 7, 3, 5, 10, 2, 8, 4, 6}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if vals[0] != 9 {
		t.Error("median reordered its input")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(vals)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q3 = quartiles([]float64{1, 2})
	if math.Abs(q1-0.75) > 1e-12 || math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles of two = %g, %g, want 0.75, 2.25", q1, q3)
	}
}

func TestMergeEpisodes(t *testing.T) {
	// Three nodes, two episodes. Episode 0: calls at 10, 30, 20, returns
	// at 45, 40, 50 -> the last arrival is at 30 and the last return at
	// 50: cost 20, skew 20. Episode 1: everyone arrives at 100.
	calls := [][]int64{{10, 100}, {30, 100}, {20, 100}}
	rets := [][]int64{{45, 104}, {40, 107}, {50, 101}}
	got := mergeEpisodes(calls, rets)
	want := []episode{{cost: 20, skew: 20}, {cost: 7, skew: 0}}
	if len(got) != len(want) {
		t.Fatalf("%d episodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("episode %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// A node that aborted after one episode bounds the merge.
	calls[1], rets[1] = calls[1][:1], rets[1][:1]
	if got := mergeEpisodes(calls, rets); len(got) != 1 {
		t.Errorf("%d episodes with a short node, want 1", len(got))
	}
}
