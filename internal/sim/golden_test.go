package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/proto"
	"repro/internal/workload"
)

// goldenOptions are the ablations TestReplayMatchesGolden crosses with
// every protocol and page size, by the names its golden file uses.
var goldenOptions = []struct {
	name string
	opts proto.Options
}{
	{"none", proto.Options{}},
	{"NoDiffs", proto.Options{NoDiffs: true}},
	{"ExclusiveWriter", proto.Options{ExclusiveWriter: true}},
	{"NoPiggyback", proto.Options{NoPiggyback: true}},
}

var goldenPageSizes = []int{512, 1024, 4096, 8192}

// replayGoldenFile holds one line per cell: workload, protocol, page
// size, options and the SHA-256 of the replay's proto.Stats.
const replayGoldenFile = "testdata/replay_golden.txt"

// statsHash is the SHA-256 of every field of st, by name.
func statsHash(st *proto.Stats) string {
	h := sha256.Sum256(fmt.Appendf(nil, "%+v", *st))
	return hex.EncodeToString(h[:])
}

// replayGoldenLines replays each workload's trace (4 processors, scale 1,
// seed 1) under every protocol, page size and ablation, and returns the
// golden file's lines in its order.
func replayGoldenLines(t *testing.T) []string {
	type cell struct {
		app, proto string
		pageSize   int
		opt        int
	}
	var cells []cell
	for _, app := range workload.Names {
		for _, pr := range AllProtocolNames {
			for _, ps := range goldenPageSizes {
				for o := range goldenOptions {
					cells = append(cells, cell{app, pr, ps, o})
				}
			}
		}
	}
	lines := make([]string, len(cells))
	errs := make([]error, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := cells[i]
				tr, err := workload.GenerateCached(c.app, 4, 1, 1)
				if err != nil {
					errs[i] = err
					continue
				}
				st, err := Run(tr, c.proto, c.pageSize, goldenOptions[c.opt].opts)
				if err != nil {
					errs[i] = err
					continue
				}
				lines[i] = fmt.Sprintf("%s %s %d %s %s", c.app, c.proto, c.pageSize, goldenOptions[c.opt].name, statsHash(st))
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%+v: %v", cells[i], err)
		}
	}
	return lines
}

// TestReplayMatchesGolden pins the paper's model: every proto.Stats field
// of every workload at 4 processors under LI, LU, EI, EU and SC, at four
// page sizes, with no ablation and with each of NoDiffs, ExclusiveWriter
// and NoPiggyback, must hash to what testdata/replay_golden.txt records.
// The model's figures change only on purpose, and then the file with them.
func TestReplayMatchesGolden(t *testing.T) {
	f, err := os.Open(replayGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	got := replayGoldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d cells, golden file has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("got  %s\nwant %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d cells differ from %s", bad, len(got), replayGoldenFile)
	}
}

// BenchmarkReplay times the paper's model on water's benchmark-shaped
// trace (4 processors, scale 16, seed 1) under LI at 4 KiB pages: the
// model a splash run charges to its set-up.
func BenchmarkReplay(b *testing.B) {
	tr, err := workload.GenerateCached("water", 4, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Run(tr, "LI", 4096, proto.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(tr.Events))/b.Elapsed().Seconds(), "events/s")
}
