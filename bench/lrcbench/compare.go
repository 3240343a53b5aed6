package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of one metric on one workload. The new
// median may be worse than the old by at most bound (a share of the old
// median). Where the run-to-run spread — the wider interquartile range
// of the two sides, as a share of the old median — exceeds the bound,
// the pair is unresolved rather than unchanged, unless every new run
// reads better than every old run. An improvement counts as better only
// when it exceeds that spread.
func judge(old, new []float64, higherIsBetter bool, bound float64) (verdict, float64, float64) {
	oldMed, newMed := median(old), median(new)
	if oldMed == 0 {
		if newMed == 0 {
			return same, 0, 0
		}
		return unresolved, 0, 0
	}
	gain := (newMed - oldMed) / oldMed // positive = better
	if !higherIsBetter {
		gain = -gain
	}
	oq1, oq3 := quartiles(old)
	nq1, nq3 := quartiles(new)
	spread := max(oq3-oq1, nq3-nq1) / oldMed
	if spread > bound {
		if allBetter(old, new, higherIsBetter) {
			return better, gain, spread
		}
		return unresolved, gain, spread
	}
	switch {
	case gain < -bound:
		return worse, gain, spread
	case gain > spread && gain > 0:
		return better, gain, spread
	}
	return same, gain, spread
}

func allBetter(old, new []float64, higherIsBetter bool) bool {
	for _, n := range new {
		for _, o := range old {
			if higherIsBetter && n <= o || !higherIsBetter && n >= o {
				return false
			}
		}
	}
	return true
}

func loadDocument(path string) (*document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, schemaVersion)
	}
	return &d, nil
}

// series collects a document's untraced values of one metric on one
// workload, one per run.
func (d *document) series(workload, metric string) []float64 {
	var vals []float64
	for _, r := range d.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			vals = append(vals, v.Value)
		}
	}
	return vals
}

// timingBound is the bound the run.* timings are judged with. They are
// not part of the contract (no admissible bound holds for them on a
// shared box), so their verdicts inform and never fail the comparison.
const timingBound = 0.25

// compareFiles prints one row per (workload, metric) with both medians
// and the verdict: the end-to-end metrics with their bound and direction
// from the benchmark contract, then the run.* timings of the same runs.
// It returns the number of worse end-to-end rows; more failed ops on the
// new side count as one.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (int, error) {
	spec, err := loadBenchmarkFile(specPath)
	if err != nil {
		return 0, err
	}
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		return 0, err
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		return 0, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tunit\tchange\tspread\tbound\tverdict")
	counts := map[verdict]int{}
	for _, wl := range spec.Workloads {
		row := func(m boundedMetric, bound float64, counted bool) {
			old, new := oldDoc.series(wl.Name, m.Name), newDoc.series(wl.Name, m.Name)
			if len(old) == 0 || len(new) == 0 {
				return
			}
			v, gain, spread := judge(old, new, m.Better == "higher", bound)
			label := string(v)
			if counted {
				counts[v]++
			} else {
				label = "(" + label + ")"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, median(old), median(new), m.Unit, 100*gain, 100*spread, 100*bound, label)
		}
		for _, m := range spec.EndToEnd {
			row(m, m.Bound, true)
		}
		for _, m := range spec.PerLayer {
			if strings.HasPrefix(m.Name, "run.") {
				row(m, timingBound, false)
			}
		}
		if fo, fn := failedOps(oldDoc, wl.Name), failedOps(newDoc, wl.Name); fn > fo {
			counts[worse]++
			fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\tcount\t\t\tany increase\t%s\n", wl.Name, fo, fn, worse)
		}
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "end-to-end: %d better, %d same, %d worse, %d unresolved; verdicts in parentheses (run.* timings) are not bounded\n",
		counts[better], counts[same], counts[worse], counts[unresolved])
	return counts[worse], nil
}

func failedOps(d *document, workload string) int64 {
	var n int64
	for _, r := range d.Runs {
		if r.Workload == workload {
			n += r.Failed
		}
	}
	return n
}
