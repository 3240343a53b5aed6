package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64, in []float64) []float64 {
		out := make([]float64, len(in))
		for i, v := range in {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{100, 140, 70, 120, 85, 130, 60, 110, 150, 90}
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		bound    float64
		want     verdict
	}{
		{"same run twice", steady, steady, true, 0.10, same},
		{"throughput down 20%", steady, scale(0.8, steady), true, 0.10, worse},
		{"throughput down 5% is inside the bound", steady, scale(0.95, steady), true, 0.10, same},
		{"throughput up 20%", steady, scale(1.2, steady), true, 0.10, better},
		{"latency down 20% is better", steady, scale(0.8, steady), false, 0.10, better},
		{"latency up 20% is worse", steady, scale(1.2, steady), false, 0.10, worse},
		{"spread wider than the bound", noisy, scale(0.9, noisy), true, 0.10, unresolved},
		{"noisy but every new run beats every old one", noisy, scale(3, noisy), true, 0.10, better},
	} {
		if got, _, _ := judge(c.old, c.new, c.higher, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, opsPerS, allocs float64, failed int64) string {
		doc := document{Schema: schemaVersion}
		for seed := int64(1); seed <= 4; seed++ {
			doc.Runs = append(doc.Runs, runRecord{Workload: "lock-ring", Seed: seed, Failed: failed, Metrics: map[string]value{
				"run.ops_per_s":      {opsPerS + float64(seed), "op/s"},
				"alloc_bytes_per_op": {allocs + float64(seed), "B/op"},
				"msgs_per_op":        {7.9, "msgs/op"},
			}})
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, slow := write("a.json", 8000, 17000, 0), write("b.json", 5000, 17000, 0)
	fat, broken := write("c.json", 8000, 19000, 0), write("d.json", 8000, 17000, 3)

	var out bytes.Buffer
	worse, err := compareFiles(&out, "../../BENCHMARK.json", base, base)
	if err != nil || worse != 0 {
		t.Fatalf("A/A: %d worse, err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "alloc_bytes_per_op") || !strings.Contains(out.String(), "same") {
		t.Errorf("A/A output lacks the metric row:\n%s", out.String())
	}
	out.Reset()
	if worse, err = compareFiles(&out, "../../BENCHMARK.json", base, fat); err != nil || worse != 1 {
		t.Errorf("12%% more bytes allocated per op: %d worse, err %v\n%s", worse, err, out.String())
	}
	out.Reset()
	// Timings inform but are outside the contract: a slower run prints
	// "(worse)" and does not fail the comparison.
	if worse, err = compareFiles(&out, "../../BENCHMARK.json", base, slow); err != nil || worse != 0 {
		t.Errorf("37%% slower: %d worse, err %v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "(worse)") {
		t.Errorf("the slower run's timing row is not marked:\n%s", out.String())
	}
	if worse, err = compareFiles(&out, "../../BENCHMARK.json", base, broken); err != nil || worse != 1 {
		t.Errorf("new failed ops: %d worse, err %v", worse, err)
	}
	if _, err = compareFiles(&out, "../../BENCHMARK.json", base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing file compared without error")
	}
}
