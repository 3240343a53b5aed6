// Package obs is the runtime's observability layer: a dependency-free
// metrics registry (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition, a ring buffer of per-second traffic
// samples, a bounded protocol-event tracer dumpable as Chrome
// trace_event JSON, and an optional HTTP server exposing all three
// (/metrics, /statusz, /trace).
//
// The registry is built for live publication from hot paths: counters
// and gauges are callback series (CounterFunc/GaugeFunc) that read a
// value only when scraped — so a runtime that already keeps atomic
// counters (dsm's nodeStats, the transports' totals) exposes them with
// zero additional cost on the paths that tick them — and histograms are
// atomic bucket arrays.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free: a bucket increment, a count increment and a CAS-added sum.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start with the given growth factor — the usual latency layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// series is one registered time series: a full Prometheus series name
// (labels included), its family metadata, and how to read it.
type series struct {
	name string // e.g. `dsm_node_sent_msgs_total{node="0",kind="lockreq"}`
	fam  string // name up to '{'
	help string
	typ  string // "counter" | "gauge" | "histogram"
	read func() float64
	hist *Histogram
}

// Registry holds a process's metric series and renders them in
// Prometheus text exposition format. All methods are safe for
// concurrent use. A series name may embed a label block
// (`name{k="v",...}`); series sharing the text before '{' form one
// family and share HELP/TYPE metadata (the first registration wins).
type Registry struct {
	mu     sync.Mutex
	byName map[string]*series
	names  []string // registration order; sorted at exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*series)}
}

func splitName(name string) (fam string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) add(s *series) {
	r.byName[s.name] = s
	r.names = append(r.names, s.name)
}

// CounterFunc registers a callback-backed counter series: fn is called
// at exposition time only, so publishing an existing atomic costs
// nothing on the path that ticks it.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "counter", fn)
}

// GaugeFunc registers a callback-backed gauge series.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "gauge", fn)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic("obs: series " + name + " already registered")
	}
	r.add(&series{name: name, fam: splitName(name), help: help, typ: typ, read: fn})
}

// Histogram registers (or returns the existing) histogram named name
// with the given ascending upper bucket bounds (the +Inf bucket is
// implicit). Registering an existing name as a different metric type
// panics: it is a programming error, like a duplicate flag registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byName[name]; ok {
		if s.hist != nil {
			return s.hist
		}
		panic("obs: series " + name + " already registered with a different type")
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(bounds)+1)
	r.add(&series{name: name, fam: splitName(name), help: help, typ: "histogram", hist: h})
	return h
}

// withLabel splices an extra label into a series name: f{a="b"} + le=x
// -> f_suffix{a="b",le="x"}; a bare name grows a label block.
func withLabel(name, suffix, key, val string) string {
	fam := splitName(name)
	labels := ""
	if len(fam) < len(name) {
		labels = name[len(fam)+1:len(name)-1] + ","
	}
	return fmt.Sprintf("%s%s{%s%s=%q}", fam, suffix, labels, key, val)
}

// suffixed appends a name suffix before the label block.
func suffixed(name, suffix string) string {
	fam := splitName(name)
	if len(fam) < len(name) {
		return fam + suffix + name[len(fam):]
	}
	return fam + suffix
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format, families sorted by name, HELP/TYPE emitted once
// per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	byName := make(map[string]*series, len(names))
	for _, nm := range names {
		byName[nm] = r.byName[nm]
	}
	r.mu.Unlock()
	sort.Strings(names)

	lastFam := ""
	for _, nm := range names {
		s := byName[nm]
		if s.fam != lastFam {
			lastFam = s.fam
			if s.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.fam, s.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.fam, s.typ); err != nil {
				return err
			}
		}
		if s.hist != nil {
			h := s.hist
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(s.name, "_bucket", "le", formatValue(b)), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(s.name, "_bucket", "le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", suffixed(s.name, "_sum"), formatValue(h.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", suffixed(s.name, "_count"), h.Count()); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.name, formatValue(s.read())); err != nil {
			return err
		}
	}
	return nil
}
