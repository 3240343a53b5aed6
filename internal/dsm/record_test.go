package dsm

import (
	"encoding/binary"
	"testing"

	"repro/internal/hb"
	"repro/internal/mem"
)

// recNode is a Node that records one program goroutine's history for
// hb.Check: its synchronization, stamped after an acquire or a barrier
// returns and before a release or a barrier is entered, and the words it
// reads and writes.
type recNode struct {
	*Node
	log *hb.Log
}

func (r recNode) Acquire(l mem.LockID) error {
	err := r.Node.Acquire(l)
	r.log.Acquire(int(l))
	return err
}

func (r recNode) Release(l mem.LockID) error {
	r.log.Release(int(l))
	return r.Node.Release(l)
}

func (r recNode) Barrier(b mem.BarrierID) error {
	r.log.Arrive(int(b))
	err := r.Node.Barrier(b)
	r.log.Depart(int(b))
	return err
}

func (r recNode) Read(buf []byte, addr mem.Addr) error {
	err := r.Node.Read(buf, addr)
	r.log.Read(addr, buf)
	return err
}

func (r recNode) Write(addr mem.Addr, b []byte) error {
	r.log.Write(addr, b)
	return r.Node.Write(addr, b)
}

func (r recNode) ReadUint64(addr mem.Addr) (uint64, error) {
	v, err := r.Node.ReadUint64(addr)
	r.log.Read(addr, binary.LittleEndian.AppendUint64(nil, v))
	return v, err
}

func (r recNode) WriteUint64(addr mem.Addr, v uint64) error {
	r.log.Write(addr, binary.LittleEndian.AppendUint64(nil, v))
	return r.Node.WriteUint64(addr, v)
}

// countUnderLock runs the migratory counter on every node of the
// systems: iters times each, take lock l and increment the uint64 at
// addr. Node 0 then reads the word under the lock. The history must be
// race-free with every read legal, so every increment saw its predecessor
// and the count is exact.
func countUnderLock(t *testing.T, systems []*System, l mem.LockID, addr mem.Addr, iters int) {
	t.Helper()
	var n0 *Node
	for _, s := range systems {
		if s.IsLocal(0) {
			n0 = s.Node(0)
		}
	}
	logs := hb.NewLogs(systems[0].NumProcs())
	driveNodes(t, systems, func(node *Node) error {
		n := recNode{node, logs[node.ID()]}
		for k := 0; k < iters; k++ {
			if err := n.Acquire(l); err != nil {
				return err
			}
			v, err := n.ReadUint64(addr)
			if err != nil {
				return err
			}
			if err := n.WriteUint64(addr, v+1); err != nil {
				return err
			}
			if err := n.Release(l); err != nil {
				return err
			}
		}
		return nil
	})
	n := recNode{n0, logs[0]}
	must(t, n.Acquire(l))
	_, err := n.ReadUint64(addr)
	must(t, err)
	must(t, n.Release(l))
	checkHistory(t, logs, hb.RaceFree)
}

// checkHistory judges the recorded history and fails the test at its
// first violation.
func checkHistory(t *testing.T, logs []*hb.Log, races hb.Races) hb.Stats {
	t.Helper()
	st, err := hb.Check(logs, races)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
