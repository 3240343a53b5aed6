// Package sim is the trace-driven protocol simulator of the paper's §5.1:
// it replays a globally-ordered execution trace against a consistency
// protocol engine under a chosen page size and reports message and data
// totals. Sweeps run every (protocol, page size) combination — in
// parallel, since each run is independent — producing the series behind
// the paper's figures.
package sim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/eager"
	"repro/internal/ivy"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/trace"
)

// ProtocolNames lists the four protocols of the paper's evaluation, in its
// presentation order.
var ProtocolNames = []string{"LI", "LU", "EI", "EU"}

// AllProtocolNames additionally includes the SC (Ivy) baseline ablation.
var AllProtocolNames = []string{"LI", "LU", "EI", "EU", "SC"}

// NewProtocol constructs a protocol engine by name for n processors over
// layout, with the given ablation options. Valid names are LI, LU, EI,
// EU and SC.
func NewProtocol(name string, layout *mem.Layout, n int, opts proto.Options) (proto.Protocol, error) {
	switch name {
	case "LI":
		return core.NewEngine(layout, n, core.Invalidate, opts), nil
	case "LU":
		return core.NewEngine(layout, n, core.Update, opts), nil
	case "EI":
		return eager.NewEngine(layout, n, eager.Invalidate, opts), nil
	case "EU":
		return eager.NewEngine(layout, n, eager.Update, opts), nil
	case "SC":
		return ivy.NewEngine(layout, n), nil
	default:
		return nil, fmt.Errorf("sim: unknown protocol %q (want one of LI, LU, EI, EU, SC)", name)
	}
}

// Replay feeds every event of t to p in order, buffering barrier arrivals
// into complete episodes. The trace must be valid (trace.Validate).
func Replay(t *trace.Trace, p proto.Protocol) error {
	pending := make([][]mem.ProcID, t.NumBarriers) // arrivals so far, by barrier
	open := 0                                      // barriers with arrivals
	for i, e := range t.Events {
		switch e.Kind {
		case trace.Read:
			p.Read(e.Proc, e.Addr, int(e.Size))
		case trace.Write, trace.SetVal:
			p.Write(e.Proc, e.Addr, int(e.Size))
		case trace.Update, trace.AddVal:
			// Read-modify-writes cost a protocol exactly a read plus a
			// write of the same range.
			p.Read(e.Proc, e.Addr, int(e.Size))
			p.Write(e.Proc, e.Addr, int(e.Size))
		case trace.Acquire:
			p.Acquire(e.Proc, mem.LockID(e.Sync))
		case trace.Release:
			p.Release(e.Proc, mem.LockID(e.Sync))
		case trace.Barrier:
			if e.Sync < 0 || int(e.Sync) >= t.NumBarriers {
				return fmt.Errorf("sim: event %d: barrier %d out of range [0,%d)", i, e.Sync, t.NumBarriers)
			}
			arr := append(pending[e.Sync], e.Proc)
			if len(arr) == 1 {
				open++
			}
			if len(arr) == t.NumProcs {
				p.Barrier(arr, mem.BarrierID(e.Sync))
				arr = arr[:0]
				open--
			}
			pending[e.Sync] = arr
		default:
			return fmt.Errorf("sim: event %d has invalid kind %d", i, e.Kind)
		}
	}
	if open != 0 {
		return fmt.Errorf("sim: trace ended with %d incomplete barrier episodes", open)
	}
	return nil
}

// Run replays trace t against protocol name under the given page size and
// returns the resulting statistics.
func Run(t *trace.Trace, name string, pageSize int, opts proto.Options) (*proto.Stats, error) {
	layout, err := mem.NewLayout(t.SpaceSize, pageSize)
	if err != nil {
		return nil, err
	}
	p, err := NewProtocol(name, layout, t.NumProcs, opts)
	if err != nil {
		return nil, err
	}
	if err := Replay(t, p); err != nil {
		return nil, err
	}
	return p.Stats(), nil
}

// Result is one point of a sweep: a protocol at a page size.
type Result struct {
	Workload string
	Protocol string
	PageSize int
	Stats    *proto.Stats
}

// Messages returns the total message count at this point.
func (r Result) Messages() int64 { return r.Stats.TotalMessages() }

// DataBytes returns the total wire bytes at this point.
func (r Result) DataBytes() int64 { return r.Stats.TotalBytes() }

// Sweep replays t against each named protocol at each page size,
// one goroutine per (protocol, page size) point, and returns the results
// ordered by protocol (in the given order) then descending page size (the
// paper's figure x-axis runs 8192 down to 512).
func Sweep(t *trace.Trace, protocols []string, pageSizes []int, opts proto.Options) ([]Result, error) {
	type job struct {
		proto    string
		pageSize int
	}
	jobs := make([]job, 0, len(protocols)*len(pageSizes))
	for _, p := range protocols {
		for _, s := range pageSizes {
			jobs = append(jobs, job{p, s})
		}
	}
	results := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			st, err := Run(t, j.proto, j.pageSize, opts)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = Result{Workload: t.Name, Protocol: j.proto, PageSize: j.pageSize, Stats: st}
		}(i, j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	order := make(map[string]int, len(protocols))
	for i, p := range protocols {
		order[p] = i
	}
	sort.SliceStable(results, func(a, b int) bool {
		if order[results[a].Protocol] != order[results[b].Protocol] {
			return order[results[a].Protocol] < order[results[b].Protocol]
		}
		return results[a].PageSize > results[b].PageSize
	})
	return results, nil
}

// Series extracts, for one protocol, the metric values ordered by the
// given page sizes; metric is "messages" or "data".
func Series(results []Result, protocol string, pageSizes []int, metric string) ([]int64, error) {
	byPS := make(map[int]Result)
	for _, r := range results {
		if r.Protocol == protocol {
			byPS[r.PageSize] = r
		}
	}
	out := make([]int64, 0, len(pageSizes))
	for _, ps := range pageSizes {
		r, ok := byPS[ps]
		if !ok {
			return nil, fmt.Errorf("sim: no result for protocol %s at page size %d", protocol, ps)
		}
		switch metric {
		case "messages":
			out = append(out, r.Messages())
		case "data":
			out = append(out, r.DataBytes())
		default:
			return nil, fmt.Errorf("sim: unknown metric %q (want messages or data)", metric)
		}
	}
	return out, nil
}
