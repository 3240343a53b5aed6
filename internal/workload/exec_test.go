package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mem"
)

// execGolden pins the lockstep scheduler's output: for each program at a
// processor count, scale and seed, the event count and the SHA-256 of the
// binary trace (trace.WriteTo) and of the reference image. Any change to
// the schedule — which processor runs next, how many operations a turn
// grants — changes the traces, and with them every figure the simulator
// draws from one. The last row is water at the benchmark's shape.
var execGolden = []struct {
	name         string
	procs        int
	scale        float64
	seed         int64
	events       int
	trace, image string
}{
	{"locusroute", 4, 1, 1, 44673, "37d45cfd83de2b03313cde6f6068f210df8393a6f2e95eede2bcd6ffae8d8cc5", "ed0b178bd98cd55082b87983450ac27436db197e7b92d93d51996526b42df728"},
	{"locusroute", 4, 1, 2, 44673, "300622dc9e753f591c12fb7620187ce1b1012c968c7ed061d8ceff620f362592", "4e6c8637677bf9ebfae9184c1c822eecbab06669ab41df04898afb72b80aefe5"},
	{"cholesky", 4, 1, 1, 10193, "2f8defb03c53fe05f495fbc55f2488abe8cec2607d95b658acbfd14f988b53de", "35d2cbb9646bab53cb144cc4d1a6ac595feaa3d22bf10343a9857ec4f2702a0b"},
	{"cholesky", 4, 1, 2, 10157, "3c1e559c8a2a03087ce2a9e884c9e2f15167179c27ff08e6e83f8d2e5a3f4469", "35d2cbb9646bab53cb144cc4d1a6ac595feaa3d22bf10343a9857ec4f2702a0b"},
	{"mp3d", 4, 1, 1, 64490, "bfc8feed32167cbb28096d207271c8e26b79890167345edfdf24ab9664b6f1fa", "0900314a8e0dbae1d3793ea3beca1d571f9024cd60d396afd61fe119c2663434"},
	{"mp3d", 4, 1, 2, 64395, "dca941d0d647194e59c97b5140341dae2b2b60fdd835fa1b960b45a8b7a5ad2c", "eb32f245d422a98a4a136b959d081cc2676ce28ddcd84cc457ce9024258631ba"},
	{"water", 4, 1, 1, 31730, "a44374c4096b257bf39cc35c500aa9bb740ff4c76a48f502a057a50eb084666e", "13b59a143624f370dd8c7bbe50d301262524531c09ddfa355d6fbb086c83a942"},
	{"water", 4, 1, 2, 31535, "3b28b156569bd8f84834605bcba67901f39f703d1eb813c71cf4ca7ede35e728", "dcb026725025b7d0e31d72451098310e43f42efef97cf35b8495d43d6407afda"},
	{"pthor", 4, 1, 1, 33784, "67167c88e1ae711e8827b0036ca5a998904a4dad9afced4461357503b6d49a6e", "7a51e14ed4fdefe365d27f1d5c5261c252b92453dcf9d3ce86dd991596079cc2"},
	{"pthor", 4, 1, 2, 33774, "5963595952fa848f9a4ce00a61e6a0cb95306b790c485f42072f29d316e5865d", "7a51e14ed4fdefe365d27f1d5c5261c252b92453dcf9d3ce86dd991596079cc2"},
	{"partition", 4, 1, 1, 14968, "77d5626cf1b843edb660daed3f668fdb9ccad6212dad8d784759ead7c53eba6e", "a0c35c98413d15c1e4e8edec4346cf28bbcaf6ff66c2f8aa86731da80cf4666c"},
	{"partition", 4, 1, 2, 14968, "f1e3d6615daa96ec241797c6ebad6b5e418c1b5c41407b338d40a17d528f66c3", "9f1233125a4c6ed175f715241cdbf3608ab2fb58215a3cb71ab9d368c0988c9f"},
	{"locusroute", 2, 1, 1, 44665, "80deadc7d2c9b5a0adb93d3e9abfb40701226fc68d1ce50add89126225b3486f", "4a10cd428267944d2257aff58e53e7f18d6336cb6e68892a3675305db11b3a62"},
	{"cholesky", 2, 1, 1, 10185, "8afd0ba67083c96646676ed4b4ed834379cbffbd2b7b61e9a216608702949d93", "511bf552b387768fed22f21110c4bb4a3b8d88dfd2957b65f7efacdbb5fbbd37"},
	{"mp3d", 2, 1, 1, 64477, "240d07addba046d147388a8693b392e1791d36fd953fbf5c4791e0c73c318825", "9e49a10d298bfee4f589941474c6480a404c32cdc39c54654993fec130da98d1"},
	{"water", 2, 1, 1, 31710, "d99733b576c9b19295bc0878f26a2f25154381927e6dfefce161ee696eea5172", "d496e68f39df9c07c986d7c5baf95f845e67488ff01a5a9ac4b66e2ae919c03a"},
	{"pthor", 2, 1, 1, 16857, "0c4e4de3c1c33400cd54b55bc176e9feb5c8bcc1c67af956625766baeaccf0b1", "5cc8850ffc4725f3245afb1599dc562aedee87d76234f8c97b3441b7055067cb"},
	{"partition", 2, 1, 1, 7486, "7e4b511846d819da8e117874581a3d83d8b511ebb11c2bd332df7d4549b1f0ae", "5fbe7976a1c94a4f36c4a8eddff153c4c348e8c1e1c071e5e3acd18b62bd6ce8"},
	{"locusroute", 3, 1, 1, 44669, "dcb105cafef39ce0dc5a9be7de6ec40321ead1a45882ce79fa6dbf17d9025b92", "139a737ba65ca5a4a48b7dd48a130d749048b57dba1b3b4d1b98d376f867aee7"},
	{"cholesky", 3, 1, 1, 10189, "72e0a013954698e004afe5ca5b62704f120c0b504648d01b20223371a508c9b7", "ecca5ae7de057d37d3bb9d3e491b319916aed23aaabe470ca6760050493db0bf"},
	{"mp3d", 3, 1, 1, 64509, "f1dd978a43c1c68fa34cc5b08846e39065ac11c02cdadbe680c1f3f449b0bbdb", "659695387dcd4329707bc60ffe1a9857e208890f46e448c7532b0ec478c4a831"},
	{"water", 3, 1, 1, 31618, "d2dc96aa3ee97111d81eafdf7015f5c01284919ccce9a5e63d08ce4d17c82e60", "666c7da63a7b9e16ed541a2d88b9d6876e5f9707935ee4e375f85b97c6a372b1"},
	{"pthor", 3, 1, 1, 25358, "7a770d24aafdb3a63b3eb593e37fe0ccd894ac9b463b4ee16a3890958fe596d7", "5368d8d3c9f6eef276aa82d44a5e76e534a83cebef32e53af322b3d1669cb814"},
	{"partition", 3, 1, 1, 11227, "1a9f0c038b0de52ea877130e447d0341de2fa0a3fea73cd7ff0c973e66c98e27", "c94e995c4974bd8f85c3355a3057781bc3237b74eba2f2a5123204a3a8c90dc5"},
	{"locusroute", 8, 1, 1, 44689, "d1db8acd9c76c850f443466d9e78d9052086b36fc543d1b6b4634d68dd128e4a", "0eaaee137953d481482908dd969b1006ba9ae376dcdf00d14a825a5c4f715489"},
	{"cholesky", 8, 1, 1, 10209, "7148067a3513fa95178a1da813e37cf7df4efff0b03609d73a51253802f3b7d5", "6f5ed16420d05460842f765d4d8547dd63c8eaf3ce4058e5c8d005acf6170519"},
	{"mp3d", 8, 1, 1, 64514, "b1e2332001080751d3282736b83c1f28497caad771ed27588d6764cc503c1e50", "6902fcc2df6b004ef0f7596a12e238afc4d2751924cf035ca2515007b17e0399"},
	{"water", 8, 1, 1, 31767, "41ea37445eadad6e44c84c6a5a5ef131e3f9df24948837bd1e5a764c359a6fb7", "3e18dbd245be17157892c5b3428be3dbd5af1899dee93b18df9faf9a6eefd5c6"},
	{"pthor", 8, 1, 1, 67293, "0b346959c363f51b419b8cdd14fbb5e2c5d7a59ebbb76eadfc70abb2b1299435", "2f875399c78feb4892d49585c927ffe1b3f98c9159da2951fa47a0a6350b495a"},
	{"partition", 8, 1, 1, 29932, "8a03d33fcdbf58a6b29c34e7b335990b12d0dc5ed97055354178dafa6b42bb3d", "deba35550c3fa61272134f743874f7531c26060d641c12ab03d4da29fd3ce526"},
	{"locusroute", 16, 1, 1, 44721, "8e77553bb5a79af6dce1303e9485404be9097832cad8c7f34f73079472cd6e7e", "dcdda4c67a3a1f846f1250ec67182ccfa714a2d3cb02d531f44e7c2ad8b4a5a9"},
	{"cholesky", 16, 1, 1, 10241, "8377587060e732e86c3e8ea9987e2b6c2f5a33307b7d5871055a81ffd6cf4e95", "8318fc94d3d86cbd463435fc8724a19a77e57536b40ae1a953a01fdcc72c2698"},
	{"mp3d", 16, 1, 1, 64519, "97630f0a859bfcc8e6448421c8137d263c8fc1fcdc0514cd6e370c3ca90f800b", "e42f350431589ec830905a6334aa50efc8809f0707fa6f71d318503ef550e129"},
	{"water", 16, 1, 1, 31973, "15e94bef00dd6d4dc5d10c61570cca3f0039e677607cf8f809638eecc889bbb5", "3bff607fb67c145113e5235e82093c45918a3327cba99a9a6b6da39dcbb8b3c6"},
	{"pthor", 16, 1, 1, 134836, "76096ee21bed96d1d8ff42fc47e25edcb154f16b3f706b6c88f383bcbb99b8b3", "c06b6fecad90832d79103efdd7a4db1097e07f8a8d8061e4e6fce01b809ccc33"},
	{"partition", 16, 1, 1, 59860, "ca2c67f611b0ef2275447aa7be9b9f1345703acef9aeff509f37f0ede99acf35", "630a0fe44cd95263d00835cba06fec970a28bd724de213244a81f2f95217d79d"},
	{"water", 4, 16, 1, 503543, "507a2fe1c367d87e9a34a30f8a034aa820036adc2f0309e43cad95a79e7b2709", "11dd7f7ac9242125a9f7de89a51ebb3b18759597922718bd2b9c29185d9913e6"},
}

func TestExecuteMatchesGolden(t *testing.T) {
	for _, g := range execGolden {
		p, err := New(g.name, g.procs, g.scale, g.seed)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Execute(p)
		if err != nil {
			t.Fatalf("%s p%d scale %g seed %d: %v", g.name, g.procs, g.scale, g.seed, err)
		}
		h := sha256.New()
		if _, err := r.Trace.WriteTo(h); err != nil {
			t.Fatal(err)
		}
		img := sha256.Sum256(r.Image)
		events, tr, image := len(r.Trace.Events), hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(img[:])
		if events != g.events || tr != g.trace || image != g.image {
			t.Errorf("%s p%d scale %g seed %d: %d events, trace %s, image %s; want %d, %s, %s",
				g.name, g.procs, g.scale, g.seed, events, tr, image, g.events, g.trace, g.image)
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

// strayLock is a program in which p1 takes a lock its Config does not
// declare.
type strayLock struct{ procs int }

func (s *strayLock) Name() string { return "straylock" }
func (s *strayLock) Config() Config {
	return Config{NumProcs: s.procs, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (s *strayLock) Proc(ctx Ctx) {
	if ctx.Proc() == 1 {
		ctx.Acquire(1)
	}
	ctx.Barrier(0)
}

// TestExecuteErrorStopsProcessors: an Execute that fails — on a deadlock,
// on a release of a lock nobody holds, on a lock the program does not
// declare, on an access outside the space —
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
		{&strayLock{procs: procs}, "lock 1 outside [0,1)"},
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
	b.ReportAllocs()
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

// aheadAdder: p0 writes its own slab writes times, then adds 1 to a
// counter twice with gap more writes between; every other processor adds
// to the same counter adds times. Each processor records what its adds
// returned in its own row of got.
type aheadAdder struct {
	procs, writes, gap, adds int
	got                      [][]uint64
}

const aheadCounter = 0

func (a *aheadAdder) Name() string { return "aheadadder" }
func (a *aheadAdder) Config() Config {
	return Config{NumProcs: a.procs, SpaceSize: 8192, NumLocks: 1, NumBarriers: 1}
}
func (a *aheadAdder) Proc(ctx Ctx) {
	me := ctx.Proc()
	if me != 0 {
		for range a.adds {
			a.got[me] = append(a.got[me], ctx.FetchAddUint64(aheadCounter, uint64(me)*10))
		}
		return
	}
	for i := range a.writes {
		ctx.Write(mem.Addr(64+8*(i%500)), 8)
	}
	a.got[0] = append(a.got[0], ctx.FetchAddUint64(aheadCounter, 1))
	for range a.gap {
		ctx.Write(64, 8)
	}
	a.got[0] = append(a.got[0], ctx.FetchAddUint64(aheadCounter, 1))
}

// TestRunAheadReturnsGrantTimeValues: a processor that queues hundreds of
// plain writes ahead of the schedule and then adds to a counter the others
// add to at every turn must see the counter as it stands when its add is
// granted, as if the scheduler had run every processor one operation per
// turn, round-robin from p0.
func TestRunAheadReturnsGrantTimeValues(t *testing.T) {
	a := &aheadAdder{procs: 3, writes: 300, gap: 5, adds: 400}
	a.got = make([][]uint64, a.procs)
	r, err := Execute(a)
	if err != nil {
		t.Fatal(err)
	}
	// Turn k of round r is processor k's r-th operation. p0's adds are its
	// operations 300 and 306, so they come first in rounds 300 and 306.
	// Before p1's add in round r stand the r adds of 10 and r of 20 of
	// rounds 0..r-1 and p0's adds of rounds up to r; p2 also sees p1's.
	p0adds := func(r int) uint64 {
		var n uint64
		for _, at := range []int{a.writes, a.writes + 1 + a.gap} {
			if r >= at {
				n++
			}
		}
		return n
	}
	want := make([][]uint64, a.procs)
	want[0] = []uint64{300 * 30, 306*30 + 1}
	for r := range a.adds {
		want[1] = append(want[1], uint64(r)*30+p0adds(r))
		want[2] = append(want[2], uint64(r)*30+10+p0adds(r))
	}
	for p := range want {
		if !reflect.DeepEqual(a.got[p], want[p]) {
			t.Fatalf("p%d's adds returned %v, want %v", p, a.got[p], want[p])
		}
	}
	if final := binary.LittleEndian.Uint64(r.Image[aheadCounter:]); final != 400*30+2 {
		t.Errorf("counter ends at %d, want %d", final, 400*30+2)
	}
	// The trace is the same one-operation-per-turn order: p0, p1, p2, ...
	for i, e := range r.Trace.Events[:3*(a.writes+1)] {
		if int(e.Proc) != i%3 {
			t.Fatalf("event %d is p%d's, want p%d's", i, e.Proc, i%3)
		}
	}
}
