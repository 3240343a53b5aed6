package workload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/shm"
	"repro/internal/trace"
)

// RuntimeConfig configures a workload execution on the live DSM runtime,
// which runs each of the program's processors as one node driven by one
// goroutine.
type RuntimeConfig struct {
	// PageSize is the consistency granularity (default 4096).
	PageSize int
	// Mode selects the consistency protocol (LI, LU, EI, EU or SC).
	Mode dsm.Mode
	// GCEveryBarriers enables the runtime's barrier-time garbage
	// collection every k-th episode, and at any episode once the history
	// since the last collection outnumbers the pages (0 disables).
	GCEveryBarriers int
	// RPCTimeout bounds every remote wait (rpc responses and master
	// rendezvous collection) in the underlying systems; see
	// dsm.Config.RPCTimeout. 0 waits forever.
	RPCTimeout time.Duration
	// Metrics, when non-nil, has every system publish its live counters
	// into the registry (see dsm.Config.Metrics).
	Metrics *obs.Registry
	// Tracer, when non-nil, records protocol events from every system
	// into the shared ring (see dsm.Config.Tracer).
	Tracer *obs.Tracer
	// OnSystems, when non-nil, is called with the run's systems after
	// they are built and before any program goroutine starts — the hook
	// for serving live status (obs.StartServer with the first system's
	// Status) or installing watchdogs. The systems are owned by the run;
	// do not Close them from the hook.
	OnSystems func([]*dsm.System)
	// Transports supplies the interconnect. Nil runs the whole cluster
	// over the default in-process network. Otherwise one dsm.System is
	// built per transport instance and program bodies run on every local
	// node of every instance — a loopback TCP cluster passes all of its
	// transports here; a genuinely multi-process run passes just this
	// process's. Each transport must span exactly the program's NumProcs
	// nodes, and across processes their local endpoints must partition
	// it. The final image is read by node
	// 0, so only the run hosting node 0 reports one.
	Transports []dsm.Transport
}

// RuntimeResult is a completed runtime execution.
type RuntimeResult struct {
	// Name is the workload's name.
	Name string
	// Image is the final shared-memory image (Config().SpaceSize bytes),
	// read out by node 0 after a closing barrier — for a properly-
	// synchronized program it must equal the lockstep reference image.
	// Nil when node 0 lives in another process (its run reports it).
	Image []byte
	// Net is the interconnect's message/byte totals across this run's
	// transports, including the closing barriers and the image read-out.
	Net dsm.TransportStats
	// Nodes holds each node's protocol counters, indexed by node id
	// (zero-valued for nodes hosted by other processes).
	Nodes []dsm.Stats
}

// nodeErr carries a DSM error out of a Program body through panic; the
// runtime driver recovers it. Ctx has no error returns (program bodies are
// written against an infallible shared memory), and DSM operations only
// fail when the interconnect shuts down.
type nodeErr struct{ err error }

// nodeCtx adapts one dsm.Node to the Ctx interface through the typed
// shared-memory façade: value-carrying operations go through shm handles
// at the trace's addresses, so the encoding lives in one place. Each
// processor is one node, driven by its nodeCtx's goroutine.
type nodeCtx struct {
	n     *dsm.Node
	proc  int
	procs int
	buf   []byte
}

func (c *nodeCtx) Proc() int     { return c.proc }
func (c *nodeCtx) NumProcs() int { return c.procs }

func (c *nodeCtx) check(err error) {
	if err != nil {
		panic(nodeErr{err})
	}
}

func (c *nodeCtx) scratch(size int) []byte {
	if cap(c.buf) < size {
		c.buf = make([]byte, size)
	}
	return c.buf[:size]
}

func (c *nodeCtx) Read(addr mem.Addr, size int) {
	c.check(c.n.Read(c.scratch(size), addr))
}

func (c *nodeCtx) Write(addr mem.Addr, size int) {
	b := c.scratch(size)
	trace.FillRange(b, addr)
	c.check(c.n.Write(addr, b))
}

func (c *nodeCtx) Update(addr mem.Addr, size int) {
	b := c.scratch(size)
	c.check(c.n.Read(b, addr))
	for i := range b {
		b[i]++
	}
	c.check(c.n.Write(addr, b))
}

func (c *nodeCtx) WriteUint64(addr mem.Addr, v uint64) {
	c.check(shm.VarAt[uint64](addr).Store(c.n, v))
}

func (c *nodeCtx) ReadUint64(addr mem.Addr) uint64 {
	v, err := shm.VarAt[uint64](addr).Load(c.n)
	c.check(err)
	return v
}

func (c *nodeCtx) FetchAddUint64(addr mem.Addr, delta uint64) uint64 {
	v, err := shm.VarAt[uint64](addr).Add(c.n, delta)
	c.check(err)
	return v
}

func (c *nodeCtx) Acquire(l int) { c.check(shm.LockAt(mem.LockID(l)).Acquire(c.n)) }
func (c *nodeCtx) Release(l int) { c.check(shm.LockAt(mem.LockID(l)).Release(c.n)) }
func (c *nodeCtx) Barrier(b int) { c.check(shm.BarrierAt(mem.BarrierID(b)).Wait(c.n)) }

// RunOnRuntime executes the program on the live DSM runtime: one node per
// processor, each driven by one genuinely concurrent goroutine, with locks
// and barriers mapped to the runtime's synchronization operations. After every body returns, all processors
// run one closing barrier (id Config().NumBarriers, outside the
// program's range) so node 0's vector clock covers every interval,
// processor 0 reads the whole space out as the final image, and a second
// closing barrier holds every node alive — in this process or another —
// until the read-out has been served.
func RunOnRuntime(p Program, rc RuntimeConfig) (*RuntimeResult, error) {
	cfg := p.Config()
	if rc.PageSize == 0 {
		rc.PageSize = 4096
	}
	transports := rc.Transports
	if transports == nil {
		transports = []dsm.Transport{nil} // default in-process network
	} else if len(transports) == 0 {
		// An accidentally-emptied slice must not "succeed" with zero
		// systems, a nil image and no traffic.
		return nil, fmt.Errorf("workload %s on runtime (%s): empty transport list", p.Name(), rc.Mode)
	}
	systems := make([]*dsm.System, 0, len(transports))
	closeAll := func() {
		for _, sys := range systems {
			sys.Close()
		}
	}
	for i, tr := range transports {
		sys, err := dsm.New(dsm.Config{
			Procs:           cfg.NumProcs,
			SpaceSize:       cfg.SpaceSize,
			PageSize:        rc.PageSize,
			Mode:            rc.Mode,
			GCEveryBarriers: rc.GCEveryBarriers,
			RPCTimeout:      rc.RPCTimeout,
			Metrics:         rc.Metrics,
			Tracer:          rc.Tracer,
			Transport:       tr,
		})
		if err != nil {
			// dsm.New closed tr; close the systems already built and the
			// transports not yet handed over.
			closeAll()
			for _, rest := range transports[i+1:] {
				if rest != nil {
					rest.Close()
				}
			}
			return nil, err
		}
		systems = append(systems, sys)
	}
	defer closeAll()
	if rc.OnSystems != nil {
		rc.OnSystems(systems)
	}

	res := &RuntimeResult{Name: p.Name()}
	syncBarrier := mem.BarrierID(cfg.NumBarriers)        // all writes visible
	readoutBarrier := mem.BarrierID(cfg.NumBarriers + 1) // image read served
	errs := make([]error, cfg.NumProcs)
	var wg sync.WaitGroup
	for _, sys := range systems {
		for _, node := range sys.Local() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				proc := int(node.ID())
				ctx := &nodeCtx{n: node, proc: proc, procs: cfg.NumProcs}
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							ne, ok := r.(nodeErr)
							if !ok {
								panic(r) // workload bug, not a DSM failure
							}
							err = ne.err
						}
					}()
					p.Proc(ctx)
					// Closing barrier: every processor's modifications
					// become visible to node 0 before the image read-out.
					if err := node.Barrier(syncBarrier); err != nil {
						return err
					}
					if proc == 0 {
						img := make([]byte, cfg.SpaceSize)
						if err := node.Read(img, 0); err != nil {
							return err
						}
						res.Image = img
					}
					// Read-out barrier: peers — possibly in other
					// processes — stay alive serving pages and diffs
					// until node 0 has the image.
					return node.Barrier(readoutBarrier)
				}()
				if err != nil {
					errs[proc] = err
					closeAll() // unblock peers stuck in protocol operations
				}
			}()
		}
	}
	wg.Wait()
	// Prefer a root-cause error over the secondary "transport closed"
	// failures the shutdown induces on the other nodes.
	failed, first := -1, -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if first == -1 {
			first = i
		}
		if failed == -1 && !errors.Is(err, dsm.ErrClosed) {
			failed = i
		}
	}
	if failed == -1 {
		failed = first
	}
	if failed != -1 {
		return nil, fmt.Errorf("workload %s on runtime (%s): processor %d: %w", p.Name(), rc.Mode, failed, errs[failed])
	}
	res.Nodes = make([]dsm.Stats, cfg.NumProcs)
	for _, sys := range systems {
		res.Net.Add(sys.NetStats())
		for _, node := range sys.Local() {
			res.Nodes[node.ID()] = node.Stats()
		}
	}
	// Surface protocol and transport teardown errors (e.g. an
	// undeliverable lock grant, a peer's broken stream): a clean run must
	// close cleanly.
	var closeErrs []error
	for _, sys := range systems {
		if err := sys.Close(); err != nil {
			closeErrs = append(closeErrs, err)
		}
	}
	if err := errors.Join(closeErrs...); err != nil {
		return nil, fmt.Errorf("workload %s on runtime (%s): %w", p.Name(), rc.Mode, err)
	}
	return res, nil
}
