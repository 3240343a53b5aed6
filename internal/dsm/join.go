package dsm

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/mem"
	"repro/internal/wire"
)

// The join: a cluster's Systems must agree on the protocol and on the
// shape of the shared space — LI and LU speak the same message kinds, and
// nothing on a synchronization message says which protocol wrote it — so
// New checks that once per System instead of on every message. A System
// that does not host the master (node 0) makes one rpc to it, its first
// local node's KJoin carrying the cluster-wide Config fields, and fails if
// the master's answer differs. The master answers, records the difference
// for its Close and stops its System's nodes on it (fail), so a program
// already waiting at the master for the failed joiner returns the
// difference instead of waiting for it forever. The master's New waits
// for nobody: a joiner's New waits for the master's System, within the
// TCP dial budget and RPCTimeout, and a single System hosts the master
// and joins no one.

// clusterFields are the Config fields every System of a cluster shares, in
// the order a join carries them, and how an error shows each.
var clusterFields = [...]struct {
	name string
	of   func(*Config) uint64
	show func(uint64) string
}{
	{"Mode", func(c *Config) uint64 { return uint64(c.Mode) }, func(v uint64) string { return Mode(v).String() }},
	{"Procs", func(c *Config) uint64 { return uint64(c.Procs) }, decimal},
	{"PageSize", func(c *Config) uint64 { return uint64(c.PageSize) }, decimal},
	{"SpaceSize", func(c *Config) uint64 { return uint64(c.SpaceSize) }, decimal},
	{"GCEveryBarriers", func(c *Config) uint64 { return uint64(c.GCEveryBarriers) }, decimal},
}

func decimal(v uint64) string { return strconv.FormatUint(v, 10) }

// joinBody encodes c's cluster-wide fields as a join and its answer carry
// them in Data: a varint each, in clusterFields' order. New keeps the
// System's in System.joinBody.
func (c *Config) joinBody() []byte {
	var b []byte
	for _, f := range clusterFields {
		b = binary.AppendUvarint(b, f.of(c))
	}
	return b
}

// joinMismatch names the first cluster-wide field in which joiner's
// configuration (its join body) differs from the master's, in the same
// words at both ends; nil when they agree.
func joinMismatch(joiner mem.ProcID, joined, master []byte) error {
	for _, f := range clusterFields {
		j, k := binary.Uvarint(joined)
		m, l := binary.Uvarint(master)
		if k <= 0 || l <= 0 {
			return fmt.Errorf("malformed join of node %d: no Config.%s", joiner, f.name)
		}
		joined, master = joined[k:], master[l:]
		if j != m {
			return fmt.Errorf("node %d's Config.%s %s differs from the master's %s", joiner, f.name, f.show(j), f.show(m))
		}
	}
	if len(joined) != 0 || len(master) != 0 {
		return fmt.Errorf("malformed join of node %d: bytes past Config.%s", joiner, clusterFields[len(clusterFields)-1].name)
	}
	return nil
}

// join is New's check of a System that does not host the master: one rpc
// from its first local node, which fails naming the first field the
// master's configuration differs in.
func (n *Node) join() error {
	resp, err := n.rpc(master, &wire.Msg{Kind: wire.KJoin, Seq: n.nextSeq(), B: int32(n.id), Data: n.sys.joinBody})
	if err == nil {
		err = joinMismatch(n.id, n.sys.joinBody, resp.Data)
		resp.Release()
	}
	if err != nil {
		return fmt.Errorf("dsm: node %d: join: %w", n.id, err)
	}
	return nil
}

// handleJoin answers a join at the master with the master's configuration.
// A join that differs, or does not parse, is recorded for Close and stops
// every node of the master's System once the answer is sent: the cluster
// cannot run, and a node waiting for the joiner would otherwise wait for
// good when RPCTimeout is 0. A join anywhere else is recorded and dropped.
func (n *Node) handleJoin(m *wire.Msg, src mem.ProcID) {
	if n.id != master {
		n.noteErr("join", fmt.Errorf("join from %d dropped: only the master %d is joined", src, master))
		return
	}
	mismatch := joinMismatch(src, m.Data, n.sys.joinBody)
	n.noteErr("join", mismatch)
	n.noteErr("join", n.send(src, &wire.Msg{Kind: wire.KJoinResp, Seq: m.Seq, Data: n.sys.joinBody}))
	if mismatch != nil {
		err := fmt.Errorf("dsm: node %d: join: %w", n.id, mismatch)
		for _, l := range n.sys.local {
			l.fail(err)
		}
	}
}
