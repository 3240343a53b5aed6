// Command lrcbench is the repository's benchmark. It drives the
// unmodified DSM runtime through its public functions on six
// deterministic workloads, verifies every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run
// plus layer probes) by name with their units. See bench/README.md.
//
//	lrcbench --workload lock-ring --seed 1 --seconds 10 --trace 0   one workload, one JSON result line
//	lrcbench [-runs n] [-trace 1] [-o file]                          every workload, a table and a JSON document
//	lrcbench -compare old.json new.json                              verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one workload run as written to the JSON document.
type runRecord struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	Traced        bool             `json:"traced"`
	Op            string           `json:"op"`
	SyncDef       string           `json:"sync_def"`
	MissDef       string           `json:"miss_def"`
	Ops           int64            `json:"ops"`
	Attempted     int64            `json:"attempted"`
	Failed        int64            `json:"failed"`
	FailedOpShare float64          `json:"failed_op_share"`
	Errors        []string         `json:"errors,omitempty"`
	Metrics       map[string]value `json:"metrics"`
	TraceFile     string           `json:"trace_file,omitempty"`
}

// document is the self-describing output of a full run.
type document struct {
	Schema     string      `json:"schema"`
	Seconds    int         `json:"seconds"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	GoVersion  string      `json:"go_version"`
	Commit     string      `json:"commit"`
	Claim      *string     `json:"claim"` // this benchmark claims no gain
	Runs       []runRecord `json:"runs"`
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload and print one JSON result line")
		seed     = flag.Int64("seed", 1, "seed of the workload inputs (strides, record fill, SPLASH generator)")
		seconds  = flag.Int("seconds", 10, "sizes the fixed op count of a run: about this long on the development box")
		trace    = flag.Int("trace", 0, "1: traced run at one eighth of the op count plus layer probes, per-layer metrics")
		runs     = flag.Int("runs", 1, "full run: repeat every workload this many times with seeds seed, seed+1, ...")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for trace files and the JSON document")
		outFile  = flag.String("o", "", "full run: JSON document path (default <out>/lrcbench.json)")
		compare  = flag.Bool("compare", false, "compare two JSON documents: lrcbench -compare old.json new.json")
		specPath = flag.String("spec", "BENCHMARK.json", "benchmark contract holding each metric's bound (for -compare)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: lrcbench -compare old.json new.json")
		}
		worse, err := compareFiles(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "%v", err)
		}
		if worse > 0 {
			os.Exit(1)
		}
	case *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0:
		fatal(2, "usage: lrcbench [--workload name] [--seed n] [--seconds n>=1] [--trace 0|1] [-runs n>=1]")
	case *workload != "":
		spec := findWorkload(*workload)
		if spec == nil {
			fatal(2, "unknown workload %q", *workload)
		}
		rec, err := measure(spec, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fatal(1, "%v", err)
		}
		for _, e := range rec.Errors {
			fmt.Fprintln(os.Stderr, "lrcbench:", e)
		}
		metrics := rec.Metrics
		if *trace == 0 {
			// A full run also records the run.* timings; the contract's
			// result line carries exactly the end-to-end metrics.
			metrics = map[string]value{}
			for _, d := range endToEnd {
				metrics[d.name] = rec.Metrics[d.name]
			}
		}
		line, err := json.Marshal(contractLine{rec.Failed == 0, rec.Attempted, rec.Failed, metrics})
		if err != nil {
			fatal(1, "%v", err)
		}
		fmt.Println(string(line))
	default:
		if err := fullRun(*seed, *seconds, *runs, *trace == 1, *outDir, *outFile); err != nil {
			fatal(1, "%v", err)
		}
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lrcbench: "+format+"\n", args...)
	os.Exit(code)
}

// setupReps is how often a full-length run sets up; the median is
// reported. (splash-water's set-up takes most of a second: three.)
const setupReps = 5

// measure runs one workload once. Untraced, it reports the end-to-end
// metrics of a full-length run. Traced, it runs one eighth of the op
// count twice — without and with spans, so the two compare at equal
// history length — plus the layer probes, reports the per-layer
// metrics and writes the trace file.
func measure(spec *workloadSpec, seed int64, seconds int, traced bool, outDir string) (*runRecord, error) {
	rec := &runRecord{
		Workload: spec.name, Seed: seed, Traced: traced,
		Op: spec.op, SyncDef: spec.syncDef, MissDef: spec.missDef,
		Metrics: map[string]value{},
	}
	resetPeakRSS()
	steps := max(1, spec.nominal*seconds/10)
	var results []*runResult
	var defs []metricDef
	var vals map[string]float64
	if !traced {
		results = runWorkload(spec, seed, steps, setupReps, false)
		defs, vals = untracedDefs, untracedMetrics(results)
	} else {
		steps = max(1, steps/8)
		untraced := runWorkload(spec, seed, steps, 1, false)
		results = runWorkload(spec, seed, steps, 1, true)
		probes, probeSpans, err := runProbes(probeMinTime, probeMinIters)
		if err != nil {
			return nil, err
		}
		defs, vals = perLayer, perLayerMetrics(spec, results, untraced, probes)
		rec.TraceFile = filepath.Join(outDir, "trace-"+spec.name+".json")
		// The file shows one run: the last (splash-water has several).
		if err := writeTraceFile(rec.TraceFile, spec.name, results[len(results)-1].traces, probeSpans); err != nil {
			return nil, err
		}
		results = append(results, untraced...)
	}
	for _, r := range results {
		rec.Ops += r.ops
		rec.Attempted += r.attempted
		rec.Failed += r.failed
		rec.Errors = append(rec.Errors, r.errs...)
	}
	rec.FailedOpShare = ratio(float64(rec.Failed), float64(rec.Attempted))
	for _, d := range defs {
		rec.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	return rec, nil
}

// runWorkload runs the timed section once for a synthetic workload and
// steps times, on fresh clusters, for splash-water.
func runWorkload(spec *workloadSpec, seed int64, steps, setups int, traced bool) []*runResult {
	if spec.program == nil {
		return runSplash(seed, steps, min(setups, 3), traced)
	}
	return []*runResult{runSteps(spec, seed, steps, setups, traced)}
}

func writeTraceFile(path, workload string, traces []*nodeTrace, probes []probeSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, workload, traces, probes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fullRun measures every workload, prints each metric by name with its
// unit, and writes the JSON document.
func fullRun(seed int64, seconds, runs int, traced bool, outDir, outFile string) error {
	doc := document{
		Schema: schemaVersion, Seconds: seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	fmt.Printf("lrcbench %s  go %s  GOMAXPROCS=%d nproc=%d  commit %s\n",
		schemaVersion, doc.GoVersion, doc.GOMAXPROCS, doc.NProc, doc.Commit)
	for _, spec := range workloads {
		for r := 0; r < runs; r++ {
			modes := []bool{false}
			if traced {
				modes = append(modes, true)
			}
			for _, t := range modes {
				rec, err := measure(spec, seed+int64(r), seconds, t, outDir)
				if err != nil {
					return err
				}
				doc.Runs = append(doc.Runs, *rec)
				printRecord(rec)
			}
		}
	}
	if outFile == "" {
		outFile = filepath.Join(outDir, "lrcbench.json")
	}
	if err := os.MkdirAll(filepath.Dir(outFile), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outFile, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", outFile)
	return nil
}

func printRecord(rec *runRecord) {
	family, defs := "end-to-end, then run.* timings", untracedDefs
	if rec.Traced {
		family, defs = "per-layer (traced run)", perLayer
	}
	fmt.Printf("\n%s  seed %d  %s  op = %s  ops %d  failed_op_share %g (%d of %d)\n",
		rec.Workload, rec.Seed, family, rec.Op, rec.Ops, rec.FailedOpShare, rec.Failed, rec.Attempted)
	for _, e := range rec.Errors {
		fmt.Println("  error:", e)
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.name, rec.Metrics[d.name].Value, d.unit)
	}
	tw.Flush()
	if rec.TraceFile != "" {
		fmt.Println("  trace:", rec.TraceFile)
	}
}

// commit is the revision of the working directory's repository, or
// "unknown" outside one (the driver's checkout is not a repository).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
