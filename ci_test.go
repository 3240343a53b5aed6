package repro_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestCIContract holds .github/workflows/ci.yml to the test contract: CI
// selects tests by name pattern — everything, Gate$, Repro$ — never by a
// hand-kept list of names, and no step name carries a number, which goes
// stale with the next measurement.
func TestCIContract(t *testing.T) {
	src, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ciViolations(string(src)) {
		t.Error(v)
	}
}

var (
	ciStepName = regexp.MustCompile(`^\s*- name:\s*(.*)$`)
	ciRunArg   = regexp.MustCompile(`-run[= ]('[^']*'|"[^"]*"|\S+)`)
	ciTestName = regexp.MustCompile(`^\^?(Test|Benchmark|Fuzz)\w*\$?$`)
)

// ciViolations lists the lines of a workflow that break the contract: a
// step name with a digit, and a -run argument that names an individual
// test (Test…, Benchmark… or Fuzz…, alone or in an alternation) instead of
// a pattern or ^$.
func ciViolations(src string) []string {
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
	}
	return out
}
