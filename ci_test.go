package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIContract holds .github/workflows/ci.yml to the test contract: CI
// selects tests by name pattern — everything, Gate$, Repro$ — never by a
// hand-kept list of names, no step name carries a number, which goes
// stale with the next measurement, and every -bench pattern selects at
// least one benchmark in each package its step names, so a renamed
// benchmark cannot turn the step into a silent no-op.
func TestCIContract(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ciViolations(string(src), benchmarksIn) {
		t.Error(v)
	}
}

// TestCIViolations: each rule of the contract, broken and kept.
func TestCIViolations(t *testing.T) {
	benches := func(pkg string) []string {
		return map[string][]string{"./a/": {"BenchmarkWireSend", "BenchmarkDecode"}, "./b": {"BenchmarkLogAppend"}}[pkg]
	}
	for _, row := range []struct {
		line string
		want int // violations
	}{
		{"      - name: Gates", 0},
		{"      - name: Gates over 3 runs", 1},
		{"        run: go test -run 'Gate$' ./...", 0},
		{"        run: go test -run 'TestFoo|Bar' ./...", 1},
		{"        run: go test -run '^$' -bench '^BenchmarkWire' -benchmem ./a/", 0},
		{"        run: go test -run '^$' -bench '^BenchmarkWire' -benchmem ./a/ ./b", 1},
		{"        run: go test -run '^$' -bench . -benchtime 100x ./a/ ./b | tee out.json", 0},
		{"        run: go test -run '^$' -bench 'LogAppend/size=1' ./b", 0},
		{"        run: go test -run '^$' -bench 'Renamed' ./b", 1},
	} {
		if got := ciViolations(row.line, benches); len(got) != row.want {
			t.Errorf("%q: violations %q, want %d", row.line, got, row.want)
		}
	}
}

var (
	ciStepName  = regexp.MustCompile(`^\s*- name:\s*(.*)$`)
	ciRunArg    = regexp.MustCompile(`-run[= ]('[^']*'|"[^"]*"|\S+)`)
	ciTestName  = regexp.MustCompile(`^\^?(Test|Benchmark|Fuzz)\w*\$?$`)
	ciBenchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
)

// ciValueFlags are the go test flags a CI step gives a separate value.
var ciValueFlags = []string{"-run", "-bench", "-benchtime", "-count", "-fuzz", "-fuzztime"}

// ciViolations lists the lines of a workflow that break the contract: a
// step name with a digit, a -run argument that names an individual test
// (Test…, Benchmark… or Fuzz…, alone or in an alternation) instead of a
// pattern or ^$, and a -bench pattern that matches none of the benchmarks
// (benches returns their names) of a package its go test names.
func ciViolations(src string, benches func(pkg string) []string) []string {
	var out []string
	for i, line := range strings.Split(src, "\n") {
		if m := ciStepName.FindStringSubmatch(line); m != nil && strings.ContainsAny(m[1], "0123456789") {
			out = append(out, fmt.Sprintf("ci.yml:%d: step name %q contains a digit", i+1, m[1]))
		}
		for _, m := range ciRunArg.FindAllStringSubmatch(line, -1) {
			for _, alt := range strings.Split(strings.Trim(m[1], `'"`), "|") {
				if top, _, _ := strings.Cut(alt, "/"); ciTestName.MatchString(top) {
					out = append(out, fmt.Sprintf("ci.yml:%d: -run names the test %s; select by a name pattern", i+1, alt))
				}
			}
		}
		out = append(out, ciBenchViolations(i+1, line, benches)...)
	}
	return out
}

// ciBenchViolations checks a go test line's -bench pattern, as go test
// reads it (the part before the first / selects top-level benchmarks),
// against each package the line names.
func ciBenchViolations(lineNo int, line string, benches func(pkg string) []string) []string {
	_, cmd, ok := strings.Cut(line, "go test ")
	if !ok {
		return nil
	}
	cmd, _, _ = strings.Cut(cmd, "|")
	var pattern string
	var pkgs []string
	fields := strings.Fields(cmd)
	for i, f := range fields {
		switch {
		case i > 0 && fields[i-1] == "-bench":
			pattern = strings.Trim(f, `'"`)
		case i > 0 && slices.Contains(ciValueFlags, fields[i-1]), strings.HasPrefix(f, "-"):
		default:
			pkgs = append(pkgs, f)
		}
	}
	if pattern == "" {
		return nil
	}
	top, _, _ := strings.Cut(pattern, "/")
	re, err := regexp.Compile(top)
	if err != nil {
		return []string{fmt.Sprintf("ci.yml:%d: -bench %s does not compile: %v", lineNo, pattern, err)}
	}
	var out []string
	for _, pkg := range pkgs {
		if !slices.ContainsFunc(benches(pkg), re.MatchString) {
			out = append(out, fmt.Sprintf("ci.yml:%d: -bench %s matches no benchmark in %s", lineNo, pattern, pkg))
		}
	}
	return out
}

// benchmarksIn returns the benchmark functions of the package at pkg, a
// directory relative to the repository root.
func benchmarksIn(pkg string) []string {
	files, _ := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, m := range ciBenchFunc.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}
