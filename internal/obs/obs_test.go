package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRegistryPrometheusText(t *testing.T) {
	r := NewRegistry()
	var reqs atomic.Int64
	r.CounterFunc(`reqs_total{node="0"}`, "requests", func() float64 { return float64(reqs.Load()) })
	reqs.Add(41)
	reqs.Add(1)
	r.CounterFunc(`reqs_total{node="1"}`, "requests", func() float64 { return 7 })
	r.GaugeFunc("queue_depth", "depth", func() float64 { return 3.5 })
	r.GaugeFunc("procs", "cluster size", func() float64 { return 8 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{node="0"} 42`,
		`reqs_total{node="1"} 7`,
		"# TYPE queue_depth gauge",
		"queue_depth 3.5",
		"procs 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family even with several labeled series.
	if n := strings.Count(out, "# TYPE reqs_total counter"); n != 1 {
		t.Errorf("TYPE for reqs_total emitted %d times", n)
	}
	// Re-registering a histogram returns the same one; a name registered
	// twice as a callback series, or as a histogram and as a callback
	// series, is a programming error.
	h := r.Histogram("lat_seconds", "latency", []float64{1})
	if h2 := r.Histogram("lat_seconds", "latency", []float64{1}); h2 != h {
		t.Error("re-registration returned a different histogram")
	}
	for name, register := range map[string]func(){
		"counter twice":          func() { r.CounterFunc(`reqs_total{node="0"}`, "requests", func() float64 { return 0 }) },
		"histogram over counter": func() { r.Histogram(`reqs_total{node="1"}`, "requests", []float64{1}) },
		"gauge over histogram":   func() { r.GaugeFunc("lat_seconds", "latency", func() float64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %s did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat_seconds{node="2"}`, "latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{node="2",le="0.001"} 1`,
		`lat_seconds_bucket{node="2",le="0.01"} 2`,
		`lat_seconds_bucket{node="2",le="0.1"} 3`,
		`lat_seconds_bucket{node="2",le="+Inf"} 4`,
		`lat_seconds_count{node="2"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := h.Sum(); got < 5.05 || got > 5.06 {
		t.Errorf("histogram sum = %v", got)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var counts [4]atomic.Int64
	for w := range counts {
		r.CounterFunc(fmt.Sprintf(`c_total{w="%d"}`, w), "c", func() float64 { return float64(counts[w].Load()) })
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.GaugeFunc(fmt.Sprintf(`g{i="%d"}`, i), "g", func() float64 { return float64(i) })
			h := r.Histogram(fmt.Sprintf(`h_seconds{w="%d"}`, i%4), "h", []float64{1, 10})
			for j := 0; j < 1000; j++ {
				counts[i%4].Add(1)
				h.Observe(float64(j % 20))
			}
			var sink bytes.Buffer
			r.WritePrometheus(&sink)
		}(i)
	}
	wg.Wait()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`c_total{w="0"} 2000`, `h_seconds_count{w="0"} 2000`, `g{i="7"} 7`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestTrafficRing(t *testing.T) {
	r := NewTrafficRing(3)
	for i := int64(1); i <= 5; i++ {
		r.Push(100+i, TrafficSample{Messages: i * 10, Bytes: i * 100})
	}
	got := r.Recent()
	if len(got) != 3 {
		t.Fatalf("ring kept %d samples, want 3", len(got))
	}
	// Samples 3..5: deltas of 10 messages / 100 bytes each.
	for i, s := range got {
		if s.Messages != 10 || s.Bytes != 100 {
			t.Errorf("sample %d = %+v, want delta 10/100", i, s)
		}
		if s.Unix != 100+int64(i)+3 {
			t.Errorf("sample %d unix = %d", i, s.Unix)
		}
	}
}

func TestTrafficSampler(t *testing.T) {
	r := NewTrafficRing(16)
	var mu sync.Mutex
	total := int64(0)
	stop := r.SampleEvery(time.Millisecond, func() TrafficSample {
		mu.Lock()
		defer mu.Unlock()
		total += 5
		return TrafficSample{Messages: total}
	})
	time.Sleep(20 * time.Millisecond)
	stop()
	got := r.Recent()
	if len(got) == 0 {
		t.Fatal("sampler pushed nothing")
	}
	for i, s := range got {
		if i > 0 && s.Messages != 5 {
			t.Errorf("sample %d delta = %d, want 5", i, s.Messages)
		}
	}
}

func TestTracerRingAndChromeDump(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		tr.Emit(int32(i%2), "sync", "cs-enter", int64(i))
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(ev))
	}
	if ev[0].Arg != 2 || ev[3].Arg != 5 {
		t.Errorf("wrong window: %+v", ev)
	}
	if tr.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", tr.Dropped())
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("dump has %d events, want 4", len(out.TraceEvents))
	}
	if out.TraceEvents[0]["ph"] != "i" || out.TraceEvents[0]["name"] != "cs-enter" {
		t.Errorf("unexpected event shape: %v", out.TraceEvents[0])
	}

	tr.SetEnabled(false)
	tr.Emit(0, "sync", "ignored", 0)
	if len(tr.Events()) != 4 {
		t.Error("disabled tracer recorded an event")
	}

	var nilTr *Tracer
	nilTr.Emit(0, "x", "y", 0) // must not panic
	if nilTr.Enabled() {
		t.Error("nil tracer claims enabled")
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("hits_total", "hits", func() float64 { return 3 })
	tr := NewTracer(8)
	tr.Emit(1, "sync", "cs-enter", 7)
	srv, err := StartServer("127.0.0.1:0", ServerConfig{
		Registry: r,
		Tracer:   tr,
		Status:   func() any { return map[string]any{"mode": "LI", "procs": 4} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	if body := get("/metrics"); !strings.Contains(body, "hits_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var status map[string]any
	if err := json.Unmarshal([]byte(get("/statusz")), &status); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if status["mode"] != "LI" {
		t.Errorf("/statusz = %v", status)
	}
	if body := get("/trace"); !strings.Contains(body, "cs-enter") {
		t.Errorf("/trace missing event:\n%s", body)
	}
	// A profile is a gzipped protobuf.
	if body := get("/debug/pprof/allocs"); !strings.HasPrefix(body, "\x1f\x8b") {
		t.Errorf("/debug/pprof/allocs is not a gzipped profile: %d bytes starting %q", len(body), body[:min(len(body), 8)])
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_seconds", "bench", ExpBuckets(1e-5, 4, 10))
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}

func BenchmarkTracerEmitDisabled(b *testing.B) {
	tr := NewTracer(1 << 10)
	tr.SetEnabled(false)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tr.Emit(0, "sync", "cs-enter", 1)
		}
	})
}
