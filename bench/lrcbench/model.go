package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The paper's model is run on a prefix of a synthetic program: whole
// steps until modelEvents events or modelSteps steps are recorded,
// whichever comes first. That is enough steps for the cold start to be
// a few percent of the counts and few enough for set-up to stay well
// under a second.
const (
	modelEvents = 200000
	modelSteps  = 512
)

// modelNode stands in for a DSM node while a program's accesses are
// recorded as a trace: it serves every access from one flat image and
// appends an event per call. Nothing blocks, because the recorder runs
// the nodes one after another within each phase.
type modelNode struct {
	t     *trace.Trace
	image []byte
	proc  mem.ProcID
}

func (n *modelNode) event(kind trace.Kind, addr mem.Addr, size int, sync int32) {
	n.t.Events = append(n.t.Events, trace.Event{Kind: kind, Proc: n.proc, Addr: addr, Size: int32(size), Sync: sync})
}

func (n *modelNode) Acquire(l mem.LockID) error { n.event(trace.Acquire, 0, 0, int32(l)); return nil }
func (n *modelNode) Release(l mem.LockID) error { n.event(trace.Release, 0, 0, int32(l)); return nil }
func (n *modelNode) Barrier(b mem.BarrierID) error {
	// The recorder emits a phase's barrier arrivals itself, after every
	// node has run the phase.
	return nil
}

func (n *modelNode) Read(buf []byte, addr mem.Addr) error {
	n.event(trace.Read, addr, len(buf), 0)
	copy(buf, n.image[addr:])
	return nil
}

func (n *modelNode) Write(addr mem.Addr, data []byte) error {
	n.event(trace.Write, addr, len(data), 0)
	copy(n.image[addr:], data)
	return nil
}

func (n *modelNode) ReadUint64(addr mem.Addr) (uint64, error) {
	n.event(trace.Read, addr, 8, 0)
	return binary.LittleEndian.Uint64(n.image[addr:]), nil
}

func (n *modelNode) WriteUint64(addr mem.Addr, v uint64) error {
	n.event(trace.Write, addr, 8, 0)
	binary.LittleEndian.PutUint64(n.image[addr:], v)
	return nil
}

// modelTrace records the program's first steps as one legal interleaving: within a phase
// node 0's accesses, then node 1's, and so on, then the four barrier
// arrivals. It returns the trace, the steps it covers, and the ops whose
// check failed against the sequentially consistent image (0 for a
// correct program: this is also the programs' cluster-free self-test).
func modelTrace(prog stepProgram, name string) (t *trace.Trace, steps int, failed int64) {
	t = &trace.Trace{
		NumProcs: nodes, SpaceSize: prog.space(), NumLocks: lrLocks, NumBarriers: prog.phases(), Name: name,
		Events: make([]trace.Event, 0, modelEvents+modelEvents/4),
	}
	image := make([]byte, prog.space())
	ws := make([]*worker, nodes)
	for i := range ws {
		ws[i] = &worker{id: i, n: &modelNode{t: t, image: image, proc: mem.ProcID(i)}}
		ws[i].t0 = time.Now()
	}
	for ; len(t.Events) < modelEvents && steps < modelSteps; steps++ {
		for ph := 0; ph < prog.phases(); ph++ {
			for _, w := range ws {
				if err := prog.phase(w, steps, ph); err != nil {
					w.failed++ // a modelNode never fails; a program that fails on it is wrong
				}
			}
			for i := range ws {
				t.Events = append(t.Events, trace.Event{Kind: trace.Barrier, Proc: mem.ProcID(i), Sync: int32(ph)})
			}
		}
	}
	for _, w := range ws {
		failed += w.failed
	}
	return t, steps, failed
}

// modelCounts is what the paper's protocol model charges for a trace.
type modelCounts struct {
	stats *proto.Stats
	ops   int64 // ops the trace covers
}

// stepModel runs the paper's model of the workload's protocol on the
// recorded prefix of its program.
func stepModel(spec *workloadSpec, prog stepProgram) (modelCounts, error) {
	t, steps, failed := modelTrace(prog, spec.name)
	if failed > 0 {
		return modelCounts{}, fmt.Errorf("%s: %d ops fail on a sequentially consistent memory", spec.name, failed)
	}
	stats, err := sim.Run(t, spec.mode.String(), pageSize, proto.Options{})
	return modelCounts{stats, int64(steps) * prog.opsPerStep()}, err
}
