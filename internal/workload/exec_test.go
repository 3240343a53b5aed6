package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"
	"time"
)

// execGolden pins the lockstep scheduler's output: for each program at 4
// processors and scale 1, the event count and the SHA-256 of the binary
// trace (trace.WriteTo) and of the reference image. Any change to the
// schedule — which processor runs next, how many operations a resume
// covers — changes the traces, and with them every figure the simulator
// draws from one.
var execGolden = []struct {
	name         string
	seed         int64
	events       int
	trace, image string
}{
	{"locusroute", 1, 44673, "37d45cfd83de2b03313cde6f6068f210df8393a6f2e95eede2bcd6ffae8d8cc5", "ed0b178bd98cd55082b87983450ac27436db197e7b92d93d51996526b42df728"},
	{"locusroute", 2, 44673, "300622dc9e753f591c12fb7620187ce1b1012c968c7ed061d8ceff620f362592", "4e6c8637677bf9ebfae9184c1c822eecbab06669ab41df04898afb72b80aefe5"},
	{"cholesky", 1, 10193, "2f8defb03c53fe05f495fbc55f2488abe8cec2607d95b658acbfd14f988b53de", "35d2cbb9646bab53cb144cc4d1a6ac595feaa3d22bf10343a9857ec4f2702a0b"},
	{"cholesky", 2, 10157, "3c1e559c8a2a03087ce2a9e884c9e2f15167179c27ff08e6e83f8d2e5a3f4469", "35d2cbb9646bab53cb144cc4d1a6ac595feaa3d22bf10343a9857ec4f2702a0b"},
	{"mp3d", 1, 64490, "bfc8feed32167cbb28096d207271c8e26b79890167345edfdf24ab9664b6f1fa", "0900314a8e0dbae1d3793ea3beca1d571f9024cd60d396afd61fe119c2663434"},
	{"mp3d", 2, 64395, "dca941d0d647194e59c97b5140341dae2b2b60fdd835fa1b960b45a8b7a5ad2c", "eb32f245d422a98a4a136b959d081cc2676ce28ddcd84cc457ce9024258631ba"},
	{"water", 1, 31730, "a44374c4096b257bf39cc35c500aa9bb740ff4c76a48f502a057a50eb084666e", "13b59a143624f370dd8c7bbe50d301262524531c09ddfa355d6fbb086c83a942"},
	{"water", 2, 31535, "3b28b156569bd8f84834605bcba67901f39f703d1eb813c71cf4ca7ede35e728", "dcb026725025b7d0e31d72451098310e43f42efef97cf35b8495d43d6407afda"},
	{"pthor", 1, 33784, "67167c88e1ae711e8827b0036ca5a998904a4dad9afced4461357503b6d49a6e", "7a51e14ed4fdefe365d27f1d5c5261c252b92453dcf9d3ce86dd991596079cc2"},
	{"pthor", 2, 33774, "5963595952fa848f9a4ce00a61e6a0cb95306b790c485f42072f29d316e5865d", "7a51e14ed4fdefe365d27f1d5c5261c252b92453dcf9d3ce86dd991596079cc2"},
	{"partition", 1, 14968, "77d5626cf1b843edb660daed3f668fdb9ccad6212dad8d784759ead7c53eba6e", "a0c35c98413d15c1e4e8edec4346cf28bbcaf6ff66c2f8aa86731da80cf4666c"},
	{"partition", 2, 14968, "f1e3d6615daa96ec241797c6ebad6b5e418c1b5c41407b338d40a17d528f66c3", "9f1233125a4c6ed175f715241cdbf3608ab2fb58215a3cb71ab9d368c0988c9f"},
}

func TestExecuteMatchesGolden(t *testing.T) {
	for _, g := range execGolden {
		p, err := New(g.name, 4, 1, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("%s seed %d: %v", g.name, g.seed, err)
		}
		h := sha256.New()
		if _, err := r.Trace.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		img := sha256.Sum256(r.Image)
		events, tr, image := len(r.Trace.Events), hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(img[:])
		if events != g.events || tr != g.trace || image != g.image {
			t.Errorf("%s seed %d: %d events, trace %s, image %s; want %d, %s, %s",
				g.name, g.seed, events, tr, image, g.events, g.trace, g.image)
		}
	}
}

// deadlocked is a program whose processors all end up waiting: p0 takes
// lock 0 into the barrier, where the others, queued on lock 0, never
// arrive.
type deadlocked struct{ procs int }

func (d *deadlocked) Name() string { return "deadlocked" }
func (d *deadlocked) Config() Config {
	return Config{NumProcs: d.procs, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (d *deadlocked) Proc(ctx Ctx) {
	ctx.Acquire(0)
	ctx.Barrier(0)
	ctx.Release(0)
}

// strayRelease is a program in which p1 releases a lock it never took.
type strayRelease struct{ procs int }

func (s *strayRelease) Name() string { return "strayrelease" }
func (s *strayRelease) Config() Config {
	return Config{NumProcs: s.procs, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (s *strayRelease) Proc(ctx Ctx) {
	if ctx.Proc() == 1 {
		ctx.Release(0)
	}
	ctx.Write(0, 8)
	ctx.Barrier(0)
}

// TestExecuteErrorStopsProcessors: an Execute that fails — on a deadlock,
// on a release of a lock nobody holds, on an access outside the space —
// leaves none of its processors behind, each of which used to stay blocked
// for the life of the process.
func TestExecuteErrorStopsProcessors(t *testing.T) {
	const procs = 8
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		p    Program
		want string
	}{
		{&deadlocked{procs: procs}, "deadlock"},
		{&strayRelease{procs: procs}, "does not hold"},
		{&outOfRange{procs: procs}, "outside space"},
	} {
		if _, err := Execute(tc.p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.p.Name(), err, tc.want)
		}
	}
	left := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); left > base && time.Now().Before(deadline); left = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if left > base {
		t.Errorf("%d goroutines before three failed executions of %d processors, %d after", base, procs, left)
	}
}

// BenchmarkExecute times the lockstep backend on water at the benchmark's
// shape (4 processors, scale 16, seed 1): the reference a splash run builds
// before its cluster exists.
func BenchmarkExecute(b *testing.B) {
	var events int
	for b.Loop() {
		p, err := New("water", 4, 16, 1)
		if err != nil {
			b.Fatal(err)
		}
		r, err := Execute(p)
		if err != nil {
			b.Fatal(err)
		}
		events += len(r.Trace.Events)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
