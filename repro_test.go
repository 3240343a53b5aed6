package repro_test

import (
	"bytes"
	"sync"
	"testing"

	"repro"
)

func TestFacadeSimulation(t *testing.T) {
	tr, err := repro.GenerateTrace("water", 8, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := repro.Simulate(tr, "LI", 1024, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalMessages() <= 0 {
		t.Fatal("no messages simulated")
	}
	results, err := repro.Sweep(tr, repro.Protocols, []int{512, 4096}, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(repro.Protocols)*2 {
		t.Fatalf("results = %d", len(results))
	}
	series, err := repro.Series(results, "EU", []int{4096, 512}, "data")
	if err != nil || len(series) != 2 {
		t.Fatalf("series %v err %v", series, err)
	}
}

func TestFacadeConstants(t *testing.T) {
	if len(repro.Protocols) != 4 || len(repro.AllProtocols) != 5 {
		t.Error("protocol lists wrong")
	}
	if len(repro.Workloads) != 6 {
		t.Error("workload list wrong")
	}
	if len(repro.PaperPageSizes) != 5 || repro.PaperProcs != 16 {
		t.Error("paper constants wrong")
	}
}

func TestFacadeDSM(t *testing.T) {
	d, err := repro.NewDSM(repro.DSMConfig{
		Procs: 4, SpaceSize: 16 * 1024, PageSize: 1024, Mode: repro.LazyUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := d.Node(i)
			for k := 0; k < 5; k++ {
				if errs[i] = n.Acquire(0); errs[i] != nil {
					return
				}
				v, err := n.ReadUint64(0)
				if err != nil {
					errs[i] = err
					return
				}
				if errs[i] = n.WriteUint64(0, v+1); errs[i] != nil {
					return
				}
				if errs[i] = n.Release(0); errs[i] != nil {
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	n := d.Node(0)
	if err := n.Acquire(0); err != nil {
		t.Fatal(err)
	}
	v, err := n.ReadUint64(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 20 {
		t.Fatalf("counter = %d, want 20", v)
	}
	if err := n.Release(0); err != nil {
		t.Fatal(err)
	}
	if d.NetStats().Messages == 0 {
		t.Error("no interconnect traffic")
	}
}

func TestFacadeWorkloadRuntime(t *testing.T) {
	ref, err := repro.ExecuteWorkload("cholesky", 4, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Trace == nil || len(ref.Image) == 0 {
		t.Fatal("reference execution incomplete")
	}
	res, err := repro.RunWorkloadOnRuntime("cholesky", 4, 0.05, 7, repro.RuntimeConfig{
		PageSize: 1024, Mode: repro.LazyUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Image, ref.Image) {
		t.Error("runtime image diverges from sequential reference")
	}
	if _, err := repro.RunWorkloadOnRuntime("bogus", 4, 1, 7, repro.RuntimeConfig{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestFacadeTypedSHMRepro drives the public typed shared-memory surface: an
// Arena schema with Var/Array/Bytes handles, Locked critical sections
// and a Barrier, against a live DSM. Run many times under -race, it
// reproduces a flag read as 0 if handles ever share a diff word again: a
// flag stored under the lock must survive a neighbour's unlocked store.
func TestFacadeTypedSHMRepro(t *testing.T) {
	d, err := repro.NewDSM(repro.DSMConfig{
		Procs: 3, SpaceSize: 32 * 1024, PageSize: 1024, Mode: repro.EagerUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	a := repro.NewArena(d.Layout())
	total := repro.NewVar[uint64](a)
	flags := repro.NewArray[byte](a, 3)
	blob := repro.NewBytes(a, 16)
	lock := a.NewLock()
	done := a.NewBarrier()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := d.Node(i)
			errs[i] = repro.Locked(n, lock, func() error {
				if _, err := total.Add(n, uint64(i+1)); err != nil {
					return err
				}
				return flags.At(i).Store(n, 1)
			})
			if errs[i] != nil {
				return
			}
			if i == 0 {
				errs[i] = blob.Store(n, []byte("hello, shm"))
				if errs[i] != nil {
					return
				}
			}
			errs[i] = done.Wait(n)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	n := d.Node(1)
	if v, err := total.Load(n); err != nil || v != 1+2+3 {
		t.Errorf("total = %d, %v", v, err)
	}
	for i := 0; i < 3; i++ {
		if v, err := flags.At(i).Load(n); err != nil || v != 1 {
			t.Errorf("flag %d = %d, %v", i, v, err)
		}
	}
	buf := make([]byte, 10)
	if err := blob.Load(n, buf); err != nil || string(buf) != "hello, shm" {
		t.Errorf("blob = %q, %v", buf, err)
	}
}

// TestFacadeTCPTransport runs a workload through the public TCP cluster
// constructor — the full redesigned surface end to end: typed handles
// above, real sockets below.
func TestFacadeTCPTransport(t *testing.T) {
	trs, err := repro.NewLoopbackTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := repro.ExecuteWorkload("water", 3, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunWorkloadOnRuntime("water", 3, 0.05, 7, repro.RuntimeConfig{
		PageSize: 1024, Mode: repro.LazyInvalidate, Transports: trs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Image, ref.Image) {
		t.Error("runtime image over TCP diverges from sequential reference")
	}
	if res.Net.Messages == 0 {
		t.Error("no traffic crossed the TCP cluster")
	}
}
