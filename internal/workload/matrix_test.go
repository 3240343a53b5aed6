package workload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/dsm"
	"repro/internal/hb"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/transport/fault"
	"repro/internal/transport/tcp"
)

// The differential matrix: the SPLASH programs run on the live runtime
// under the protocols, shapes and interconnects below, and each run is
// judged twice. Its final image must be byte-identical to the lockstep
// execution's (the sequential reference), and every read it made must
// return what hb1 allows (internal/hb): the bytes of an hb1-maximal
// preceding write or of a concurrent one. A properly synchronized
// program's image does not depend on the interleaving, so one reference
// serves every row; the generators make benign racy reads, so races are
// counted, not failed.

// row is one cell of the matrix. Over simnet, fault names a fault.Parse
// plan the interconnect runs under.
type row struct {
	prog     string
	procs    int
	scale    float64
	pageSize int
	mode     dsm.Mode
	tcp      bool
	gc       int
	fault    string
}

func (r row) String() string {
	transport := "simnet"
	if r.tcp {
		transport = "tcp"
	} else if r.fault != "" {
		transport = "simnet+" + r.fault
	}
	// The "gpn1" segment names the one application goroutine per node and
	// the "block" segment the page→home map, pg % procs, which every row
	// runs; they keep the rows' names as they were when other shapes and a
	// second map existed.
	return fmt.Sprintf("%s/p%d/s%g/ps%d/%s/gpn1/%s/block/gc%d",
		r.prog, r.procs, r.scale, r.pageSize, r.mode, transport, r.gc)
}

// matrixRows lists the matrix's cross products, each distinct cell once.
func matrixRows() []row {
	var rows []row
	add := func(r row) {
		if !slices.Contains(rows, r) {
			rows = append(rows, r)
		}
	}
	const small, big = 0.05, 0.1
	for _, name := range Names {
		for _, mode := range dsm.Modes {
			// Every program and protocol at eight processors on small, 1 KiB
			// and large pages, and at four across real sockets.
			add(row{prog: name, procs: 8, scale: big, pageSize: 512, mode: mode})
			add(row{prog: name, procs: 8, scale: big, pageSize: 1024, mode: mode})
			add(row{prog: name, procs: 8, scale: big, pageSize: 4096, mode: mode})
			add(row{prog: name, procs: 4, scale: small, pageSize: 1024, mode: mode, tcp: true})
		}
		// Over TCP at two nodes too, under the two protocols that move data
		// only at misses.
		for _, mode := range []dsm.Mode{dsm.LazyInvalidate, dsm.SeqConsistent} {
			add(row{prog: name, procs: 2, scale: small, pageSize: 1024, mode: mode, tcp: true})
		}
	}
	for _, mode := range dsm.Modes {
		// Delay and jitter reorder nothing (per-peer FIFO holds) and lose
		// nothing.
		add(row{prog: "water", procs: 4, scale: small, pageSize: 1024, mode: mode, fault: "delay=100us,jitter=100us,seed=3"})
		// locusroute and mp3d over TCP at two nodes under every protocol.
		for _, prog := range []string{"locusroute", "mp3d"} {
			add(row{prog: prog, procs: 2, scale: small, pageSize: 1024, mode: mode, tcp: true})
		}
		// mp3d, the multi-writer program and the hardest on directory
		// state, at four processors in process too, and on one node, where
		// every lock hand-off and barrier resolves locally, in process and
		// over TCP.
		add(row{prog: "mp3d", procs: 4, scale: small, pageSize: 1024, mode: mode})
		add(row{prog: "mp3d", procs: 1, scale: small, pageSize: 1024, mode: mode})
		add(row{prog: "mp3d", procs: 1, scale: small, pageSize: 1024, mode: mode, tcp: true})
	}
	// Barrier-time garbage collection, its collective round in process and
	// over sockets.
	for _, mode := range []dsm.Mode{dsm.LazyInvalidate, dsm.LazyUpdate} {
		add(row{prog: "mp3d", procs: 8, scale: big, pageSize: 512, mode: mode, gc: 2})
	}
	add(row{prog: "mp3d", procs: 4, scale: small, pageSize: 1024, mode: dsm.LazyUpdate, tcp: true, gc: 2})
	return rows
}

// TestDifferentialMatrix runs every row; -short keeps the in-process
// rows of at most four processors without faults. Under -v each row logs the reads it
// checked, how many were racy and the messages it moved.
func TestDifferentialMatrix(t *testing.T) {
	rows := matrixRows()
	if testing.Short() {
		rows = slices.DeleteFunc(rows, func(r row) bool { return r.procs > 4 || r.tcp || r.fault != "" })
	}
	// Each reference's trace, replayed for its values, must reproduce the
	// lockstep image it denotes.
	refs := map[string]bool{}
	for _, r := range rows {
		if key := fmt.Sprint(r.prog, r.procs, r.scale); !refs[key] {
			refs[key] = true
			ref, err := ExecuteCached(r.prog, r.procs, r.scale, diffSeed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref.Trace.Image(), ref.Image) {
				t.Fatalf("%s: trace value replay diverges from the lockstep execution's image", key)
			}
		}
	}
	for _, r := range rows {
		t.Run(r.String(), func(t *testing.T) {
			t.Parallel()
			r.run(t)
		})
	}
}

func (r row) run(t *testing.T) {
	ref, err := ExecuteCached(r.prog, r.procs, r.scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := New(r.prog, r.procs, r.scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorded{prog, hb.NewLogs(r.procs)}
	rc := RuntimeConfig{PageSize: r.pageSize, Mode: r.mode, GCEveryBarriers: r.gc}
	switch {
	case r.tcp:
		cluster, err := tcp.NewLoopbackCluster(r.procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range cluster {
			rc.Transports = append(rc.Transports, tr)
		}
	case r.fault != "":
		plan, err := fault.Parse(r.fault)
		if err != nil {
			t.Fatal(err)
		}
		rc.Transports = []dsm.Transport{fault.Wrap(simnet.New(r.procs), plan)}
		rc.RPCTimeout = 2 * time.Minute
	}
	res, err := RunOnRuntime(rec, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Image, ref.Image) {
		t.Errorf("image diverges from the sequential reference (first diff at byte %d)", firstDiff(res.Image, ref.Image))
	}
	// A single node resolves everything locally.
	// Every message is its own frame.
	if n := res.Net; (r.procs > 1 && n.Messages == 0) || n.Frames != n.Messages || n.Batches != 0 {
		t.Errorf("traffic %+v: want Messages > 0 across nodes, Frames == Messages and no Batches", n)
	}
	if len(res.Nodes) != r.procs {
		t.Errorf("stats for %d nodes, want %d", len(res.Nodes), r.procs)
	}
	st, err := hb.Check(rec.logs, hb.AllowRaces)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reads checked, %d racy, %d messages", st.Reads, st.Races, res.Net.Messages)
}

// recorded runs a program on the live runtime with every processor's Ctx
// recording its history for hb.Check.
type recorded struct {
	Program
	logs []*hb.Log
}

func (r *recorded) Proc(c Ctx) {
	r.Program.Proc(&recCtx{c.(*nodeCtx), r.logs[c.Proc()]})
}

// recCtx logs the bytes an access moved from the nodeCtx's scratch buffer
// once the call has returned: what the node returned, not what the program
// meant. An acquire and a barrier departure are stamped after the call, a
// release and a barrier arrival before it.
type recCtx struct {
	*nodeCtx
	log *hb.Log
}

func le64(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func (c *recCtx) Read(a mem.Addr, size int)  { c.nodeCtx.Read(a, size); c.log.Read(a, c.buf[:size]) }
func (c *recCtx) Write(a mem.Addr, size int) { c.nodeCtx.Write(a, size); c.log.Write(a, c.buf[:size]) }
func (c *recCtx) Acquire(l int)              { c.nodeCtx.Acquire(l); c.log.Acquire(l) }
func (c *recCtx) Release(l int)              { c.log.Release(l); c.nodeCtx.Release(l) }
func (c *recCtx) Barrier(b int)              { c.log.Arrive(b); c.nodeCtx.Barrier(b); c.log.Depart(b) }

func (c *recCtx) WriteUint64(a mem.Addr, v uint64) {
	c.nodeCtx.WriteUint64(a, v)
	c.log.Write(a, le64(v))
}

func (c *recCtx) ReadUint64(a mem.Addr) uint64 {
	v := c.nodeCtx.ReadUint64(a)
	c.log.Read(a, le64(v))
	return v
}

// Update logs the bytes it read as one less than those it wrote.
func (c *recCtx) Update(a mem.Addr, size int) {
	c.nodeCtx.Update(a, size)
	old := make([]byte, size)
	for i, b := range c.buf[:size] {
		old[i] = b - 1
	}
	c.log.Read(a, old)
	c.log.Write(a, c.buf[:size])
}

func (c *recCtx) FetchAddUint64(a mem.Addr, delta uint64) uint64 {
	old := c.nodeCtx.FetchAddUint64(a, delta)
	c.log.Read(a, le64(old))
	c.log.Write(a, le64(old+delta))
	return old
}
