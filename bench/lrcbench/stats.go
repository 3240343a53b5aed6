package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// sample set by the nearest-rank rule: the smallest sample with at least
// p percent of the set at or below it. It returns 0 for an empty set.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func mean(s []int64) float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// median returns the median of vals (the mean of the two middle values
// for an even count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile of vals by the method
// of Python's statistics.quantiles(vals, n=4) (exclusive), which is what
// the acceptance check uses; with fewer than two values both are the
// value itself.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// episode is one barrier episode rebuilt from the per-node timestamp
// arrays: cost is the last node's return minus the last node's call
// (what the protocol adds once everyone has arrived), skew is the last
// call minus the first (time spent waiting for slower nodes, a property
// of the load).
type episode struct{ cost, skew int64 }

// mergeEpisodes pairs the e-th Barrier call of every node into one
// episode. calls[i][e] and rets[i][e] are node i's timestamps; nodes
// that recorded fewer episodes (an aborted run) bound the result.
func mergeEpisodes(calls, rets [][]int64) []episode {
	if len(calls) == 0 {
		return nil
	}
	n := len(calls[0])
	for i := range calls {
		if len(calls[i]) < n {
			n = len(calls[i])
		}
		if len(rets[i]) < n {
			n = len(rets[i])
		}
	}
	out := make([]episode, n)
	for e := 0; e < n; e++ {
		firstCall, lastCall, lastRet := calls[0][e], calls[0][e], rets[0][e]
		for i := 1; i < len(calls); i++ {
			firstCall = min(firstCall, calls[i][e])
			lastCall = max(lastCall, calls[i][e])
			lastRet = max(lastRet, rets[i][e])
		}
		out[e] = episode{cost: lastRet - lastCall, skew: lastCall - firstCall}
	}
	return out
}
