package hb

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mem"
)

// play records a history written as "p<proc> <op> <arg>" steps separated
// by semicolons: acq and rel take a lock, arr and dep a barrier, w and r
// take <addr>=<v>[,<v>...], one 8-byte word of byte v per value. The steps
// run in the order written, so their stamps order them that way too.
// There are as many processors as the highest one named.
func play(script string) []*Log {
	var logs []*Log
	for _, step := range strings.Split(script, ";") {
		f := strings.Fields(step)
		p := atoi(f[0][1:])
		for len(logs) <= p {
			logs = append(logs, &Log{})
		}
		l := logs[p]
		switch addr, vals, _ := strings.Cut(f[2], "="); f[1] {
		case "acq":
			l.Acquire(atoi(addr))
		case "rel":
			l.Release(atoi(addr))
		case "arr":
			l.Arrive(atoi(addr))
		case "dep":
			l.Depart(atoi(addr))
		default:
			var b []byte
			for _, v := range strings.Split(vals, ",") {
				b = append(b, bytes.Repeat([]byte{byte(atoi(v))}, 8)...)
			}
			if f[1] == "w" {
				l.Write(mem.Addr(atoi(addr)), b)
			} else {
				l.Read(mem.Addr(atoi(addr)), b)
			}
		}
	}
	return logs
}

func atoi(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil {
		panic(err)
	}
	return n
}

// TestCheckHistories: each illegal history fails and names its rule;
// each legal racy one passes and counts its race.
func TestCheckHistories(t *testing.T) {
	for _, tc := range []struct {
		name, script string
		races        Races
		rule         Rule   // "" for a legal history
		detail       string // in the violation's report
	}{
		{"stale read after a grant",
			"p0 acq 0; p0 w 0=1; p0 rel 0; p1 acq 0; p1 r 0=0", AllowRaces, StaleRead, "after acquire of lock 0"},
		{"stale read after a barrier",
			"p0 w 8=2; p0 arr 0; p1 arr 0; p0 dep 0; p1 dep 0; p1 r 8=0", AllowRaces, StaleRead, "after departure from barrier 0"},
		// Both words are on one page; proc 0's copy, installed whole,
		// wiped out proc 1's word.
		{"lost neighbour word on a false-shared page",
			"p0 w 0=3; p1 w 8=4; p0 arr 0; p1 arr 0; p0 dep 0; p1 dep 0; p0 r 0=3,0", AllowRaces, StaleRead, "returned: the initial zero"},
		// w →hb1 w′ →hb1 read, yet w's diff landed last.
		{"word reverted by a late diff",
			"p0 acq 0; p0 w 16=5; p0 rel 0; p1 acq 0; p1 w 16=6; p1 rel 0; p2 acq 0; p2 r 16=5", AllowRaces, StaleRead, "which the write above overwrote"},
		{"two holders of one lock overlap",
			"p0 acq 0; p1 acq 0; p0 rel 0; p1 rel 0", AllowRaces, MutualExclusion, "proc 1 was granted lock 0"},
		{"a processor leaves a barrier early",
			"p0 arr 0; p0 dep 0; p1 arr 0; p1 dep 0", AllowRaces, BarrierEpisode, "before proc 1 arrived"},
		{"a race in a history declared race-free",
			"p0 w 0=7; p1 r 0=7", RaceFree, Race, "concurrent: proc 0 write [0,8)"},
		{"a read returns the concurrent write", "p0 w 0=7; p1 r 0=7", AllowRaces, "", ""},
		{"a read returns the old maximal value",
			"p0 w 0=8; p0 arr 0; p1 arr 0; p0 dep 0; p1 dep 0; p0 w 0=9; p1 r 0=8", AllowRaces, "", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Check(play(tc.script), tc.races)
			var v *Violation
			switch {
			case tc.rule == "" && (err != nil || st.Races != 1):
				t.Fatalf("legal history: got %v and %d racy reads, want no error and 1", err, st.Races)
			case tc.rule != "" && (!errors.As(err, &v) || v.Rule != tc.rule || !strings.Contains(v.Error(), tc.detail)):
				t.Fatalf("got %v\nwant rule %q naming %q", err, tc.rule, tc.detail)
			}
			if v != nil {
				t.Log(v)
			}
		})
	}
}
