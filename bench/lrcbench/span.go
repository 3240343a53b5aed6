package main

import (
	"bufio"
	"fmt"
	"io"
)

// spanKind names a span. The dsm.* kinds wrap one call into the runtime
// each; op is the root span of one workload op, and its self time
// (duration minus children) is application think plus verification.
type spanKind uint8

const (
	spOp spanKind = iota
	spAcquire
	spRelease
	spRead
	spWrite
	spUpdate
	spBarrier
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"op", "dsm.acquire", "dsm.release", "dsm.read", "dsm.write", "dsm.update", "dsm.barrier"}

// accessTag places an access relative to the node's last synchronization.
// It is decided by the workload program from its own structure, not from
// runtime counters: first is the first access of its kind to a page
// since the last sync, missed is a first access the sync may have
// invalidated (its latency is a miss_* sample), repeat is anything else.
type accessTag uint8

const (
	repeat accessTag = iota
	first
	missed
)

type span struct {
	kind       spanKind
	first      bool
	op         int64 // id of the enclosing op span, 0 outside any op
	start, end int64 // ns since the run's clock origin
}

type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by its children, which
// must be ordered by start; children are clipped to the parent and
// overlapping children are counted once.
func selfTime(parent interval, children []interval) int64 {
	covered, edge := int64(0), parent.start
	for _, c := range children {
		s, e := max(c.start, edge), min(c.end, parent.end)
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return parent.end - parent.start - covered
}

// spanAgg accumulates every span of one kind and tag, kept or not.
type spanAgg struct{ n, ns int64 }

func (a spanAgg) meanNs() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.ns) / float64(a.n)
}

// nodeTrace holds one node's spans in memory during a traced run. Every
// span feeds the aggregates; only the first keep spans are retained for
// the trace file, so an eight-byte-access workload cannot exhaust memory.
type nodeTrace struct {
	node   int
	keep   int
	spans  []span
	agg    [numSpanKinds][2]spanAgg // [kind][0 repeat, 1 first]
	selfNs int64                    // summed self time of op spans

	opID     int64
	opStart  int64
	children []interval
}

func newNodeTrace(node, keep int) *nodeTrace {
	return &nodeTrace{node: node, keep: keep, spans: make([]span, 0, keep)}
}

func (t *nodeTrace) add(kind spanKind, isFirst bool, start, end int64) {
	tag := 0
	if isFirst {
		tag = 1
	}
	a := &t.agg[kind][tag]
	a.n++
	a.ns += end - start
	if kind != spOp && t.opStart != 0 {
		t.children = append(t.children, interval{start, end})
	}
	if len(t.spans) < t.keep {
		op := t.opID
		if t.opStart == 0 && kind != spOp {
			op = 0
		}
		t.spans = append(t.spans, span{kind: kind, first: isFirst, op: op, start: start, end: end})
	}
}

// beginOp opens the next op span, closing one still open: an op that
// ends in a barrier the harness issues (barrier-slab's step) lasts until
// the node begins its next.
func (t *nodeTrace) beginOp(now int64) {
	t.endOp(now)
	t.opID++
	t.opStart = max(now, 1) // 0 means "no op open"
	t.children = t.children[:0]
}

func (t *nodeTrace) endOp(now int64) {
	if t.opStart == 0 {
		return
	}
	op := interval{t.opStart, now}
	t.selfNs += selfTime(op, t.children)
	t.opStart = 0
	t.add(spOp, false, op.start, op.end)
}

// merged sums the aggregates of several node traces.
func mergedAgg(traces []*nodeTrace) (agg [numSpanKinds][2]spanAgg, selfNs int64) {
	for _, t := range traces {
		for k := range t.agg {
			for tag := range t.agg[k] {
				agg[k][tag].n += t.agg[k][tag].n
				agg[k][tag].ns += t.agg[k][tag].ns
			}
		}
		selfNs += t.selfNs
	}
	return agg, selfNs
}

// probeSpan is one layer probe's span in the trace file.
type probeSpan struct {
	name       string
	start, end int64
}

// writeChromeTrace writes the kept spans as Chrome trace_event JSON
// (load in chrome://tracing or ui.perfetto.dev): one "X" event per span,
// tid = node, args.op = the shared op id, args.tag = first/repeat.
// Probe spans go to their own tid.
func writeChromeTrace(w io.Writer, workload string, traces []*nodeTrace, probes []probeSpan) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"schema":%q},"traceEvents":[`, workload, schemaVersion)
	sep := "\n"
	for _, t := range traces {
		for _, s := range t.spans {
			tag := "repeat"
			if s.first {
				tag = "first"
			}
			fmt.Fprintf(bw, `%s{"name":%q,"cat":"lrcbench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":"%d.%d","tag":%q}}`,
				sep, spanNames[s.kind], t.node, float64(s.start)/1e3, float64(s.end-s.start)/1e3, t.node, s.op, tag)
			sep = ",\n"
		}
	}
	for _, p := range probes {
		fmt.Fprintf(bw, `%s{"name":%q,"cat":"probe","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}`,
			sep, p.name, nodes, float64(p.start)/1e3, float64(p.end-p.start)/1e3)
		sep = ",\n"
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
