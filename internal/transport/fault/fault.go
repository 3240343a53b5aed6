// Package fault is a chaos decorator over any transport.Transport: it
// deterministically (seeded) drops, delays and duplicates messages,
// partitions the cluster, and can fail-stop-kill an endpoint after a
// chosen number of sent messages — so the runtime's liveness and error
// reporting under network faults and peer death can be tested against
// both interconnects without touching either. Every payload is one
// message, so each fault is rolled once per message.
//
// All faults are applied on the send side, which keeps the transport
// contract's per-sender FIFO ordering trivially intact: a delayed message
// delays everything behind it (like a slow link), a dropped message
// simply never enters the stream, and a duplicated message is sent twice
// back to back. Loopback sends (dst == self) are never faulted — the
// runtime treats them as free local operations, not network traffic.
//
// Kill semantics are fail-stop: once the configured endpoint has sent
// its N-th message, its sends fail with ErrKilled (which wraps
// transport.ErrClosed, so the dying node treats its own demise as a
// shutdown, not a protocol fault), its Recv unblocks and reports
// closure, and — when the inner transport serves only that endpoint,
// i.e. one endpoint per process as under TCP — the whole inner
// transport is closed, so surviving peers' connections break exactly
// as they would if the process had died. When the inner transport
// serves the whole cluster in-process (simnet), survivors' sends to the
// killed endpoint fail with ErrPeerDown instead, modeling the
// connection reset a real network would eventually deliver.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// ErrKilled is the error a killed endpoint's own sends fail with. It
// wraps transport.ErrClosed: from the dying node's perspective the
// interconnect is simply gone.
var ErrKilled = fmt.Errorf("fault: endpoint killed (fail-stop): %w", transport.ErrClosed)

// ErrPeerDown is the error a send to a killed peer fails with (when the
// decorator can see the peer's death locally, i.e. over an in-process
// inner transport). It does NOT wrap transport.ErrClosed: for the
// surviving sender this is a real fault, not its own shutdown.
var ErrPeerDown = errors.New("fault: peer killed (fail-stop)")

// Plan describes the faults to inject. The zero value injects nothing.
type Plan struct {
	// Seed makes the probabilistic faults (Drop, Dup) deterministic;
	// each endpoint derives its own stream from Seed and its id.
	Seed int64
	// Drop is the probability in [0,1) that a message is silently dropped.
	Drop float64
	// Dup is the probability in [0,1) that a message is delivered twice.
	Dup float64
	// Delay stalls every send by this long (plus up to Jitter, seeded),
	// modeling a slow link; FIFO order is preserved.
	Delay  time.Duration
	Jitter time.Duration
	// PartA/PartB split the cluster into endpoints [0,PartA) and
	// [PartA,PartA+PartB): messages crossing the two groups are silently
	// dropped. Both zero disables; endpoints beyond the groups are
	// unaffected.
	PartA, PartB int
	// KillPeer fail-stop-kills that endpoint as it attempts its
	// KillAfter-th remote message. The kill is active only when
	// KillAfter >= 1, so the zero Plan injects nothing.
	KillPeer  int
	KillAfter int64
}

// killActive reports whether the plan kills an endpoint.
func (p Plan) killActive() bool { return p.KillPeer >= 0 && p.KillAfter >= 1 }

// Active reports whether the plan injects any fault.
func (p Plan) Active() bool {
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || p.Jitter > 0 ||
		p.PartA > 0 || p.PartB > 0 || p.killActive()
}

// group maps an endpoint to its partition side: 0, 1, or -1 (outside
// the partition, never cut off).
func (p Plan) group(id int) int {
	switch {
	case p.PartA <= 0 || p.PartB <= 0:
		return -1
	case id < p.PartA:
		return 0
	case id < p.PartA+p.PartB:
		return 1
	default:
		return -1
	}
}

func (p Plan) partitioned(src, dst int) bool {
	a, b := p.group(src), p.group(dst)
	return a >= 0 && b >= 0 && a != b
}

// Parse builds a Plan from a comma-separated spec, e.g.
//
//	drop=0.01,dup=0.005,delay=2ms,jitter=1ms,partition=2x2,kill=3@5000,seed=7
//
// Unknown keys are errors. An empty spec is the inactive plan.
func Parse(spec string) (Plan, error) {
	p := Plan{KillPeer: -1}
	if spec == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return p, fmt.Errorf("fault: malformed spec element %q (want key=value)", part)
		}
		var err error
		switch k {
		case "drop":
			p.Drop, err = parseProb(v)
		case "dup":
			p.Dup, err = parseProb(v)
		case "delay":
			p.Delay, err = time.ParseDuration(v)
		case "jitter":
			p.Jitter, err = time.ParseDuration(v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "partition":
			a, b, ok := strings.Cut(v, "x")
			if !ok {
				return p, fmt.Errorf("fault: partition %q (want AxB)", v)
			}
			if p.PartA, err = strconv.Atoi(a); err == nil {
				p.PartB, err = strconv.Atoi(b)
			}
			if err == nil && (p.PartA <= 0 || p.PartB <= 0) {
				err = fmt.Errorf("non-positive group size")
			}
		case "kill":
			peer, after, ok := strings.Cut(v, "@")
			if !ok {
				return p, fmt.Errorf("fault: kill %q (want PEER@COUNT)", v)
			}
			if p.KillPeer, err = strconv.Atoi(peer); err == nil {
				p.KillAfter, err = strconv.ParseInt(after, 10, 64)
			}
			if err == nil && (p.KillPeer < 0 || p.KillAfter < 1) {
				err = fmt.Errorf("want PEER >= 0 and COUNT >= 1")
			}
		default:
			return p, fmt.Errorf("fault: unknown spec key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("fault: %s=%s: %v", k, v, err)
		}
	}
	if p.Delay < 0 || p.Jitter < 0 {
		return p, fmt.Errorf("fault: negative delay")
	}
	return p, nil
}

func parseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f >= 1 {
		return 0, fmt.Errorf("probability %v outside [0,1)", f)
	}
	return f, nil
}

// Transport decorates an inner transport with the plan's faults. It
// implements transport.Transport and keeps the inner transport's
// accounting (dropped messages never reach the inner transport and are
// not accounted).
type Transport struct {
	inner transport.Transport
	plan  Plan

	mu  sync.Mutex
	eps map[int]*Endpoint
}

// Wrap decorates tr with the plan's faults. Wrap takes ownership of tr
// the way dsm.New does: closing the returned transport closes tr.
func Wrap(tr transport.Transport, plan Plan) *Transport {
	return &Transport{inner: tr, plan: plan, eps: make(map[int]*Endpoint)}
}

// NumEndpoints returns the inner cluster size.
func (t *Transport) NumEndpoints() int { return t.inner.NumEndpoints() }

// Local returns the inner transport's local endpoint ids.
func (t *Transport) Local() []int { return t.inner.Local() }

// Totals returns the inner transport's counters: what actually crossed
// the (decorated) wire — dropped messages are absent, duplicated ones
// counted twice.
func (t *Transport) Totals() transport.Stats { return t.inner.Totals() }

// Close closes the inner transport.
func (t *Transport) Close() error { return t.inner.Close() }

// Endpoint returns the decorated endpoint i.
func (t *Transport) Endpoint(i int) transport.Endpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.eps[i]; ok {
		return e
	}
	e := &Endpoint{
		t:     t,
		inner: t.inner.Endpoint(i),
		id:    i,
		rng:   rand.New(rand.NewSource(t.plan.Seed*1_000_003 + int64(i))),
	}
	if t.plan.killActive() && t.plan.KillPeer == i {
		e.killCh = make(chan struct{})
	}
	t.eps[i] = e
	return e
}

// peerKilled reports whether endpoint id is a locally-visible killed
// endpoint (only possible when the inner transport serves it in this
// process).
func (t *Transport) peerKilled(id int) bool {
	t.mu.Lock()
	e := t.eps[id]
	t.mu.Unlock()
	return e != nil && e.killed.Load()
}

// recvItem is one delivery forwarded by the kill-aware receive pump.
type recvItem struct {
	src     int
	payload []byte
}

// Endpoint decorates one endpoint with the plan's send-side faults.
type Endpoint struct {
	t     *Transport
	inner transport.Endpoint
	id    int

	mu   sync.Mutex
	rng  *rand.Rand
	sent int64

	// Kill state: killCh is non-nil iff this endpoint is the plan's
	// kill target; it is closed at death. The receive pump exists so a
	// killed endpoint's Recv unblocks even though the inner transport
	// (when shared in-process) stays up for the survivors.
	killed   atomic.Bool
	killOnce sync.Once
	killCh   chan struct{}
	pumpOnce sync.Once
	inCh     chan recvItem
}

// ID returns the endpoint's id.
func (e *Endpoint) ID() int { return e.id }

// action is one send's fault decision.
type action struct {
	drop  bool
	dup   bool
	delay time.Duration
}

// decide rolls this send's faults. It returns an error when the sender
// is dead or the destination is known dead.
func (e *Endpoint) decide(dst int) (action, error) {
	var act action
	if e.killed.Load() {
		return act, ErrKilled
	}
	p := e.t.plan
	if p.killActive() && p.KillPeer == dst && e.t.peerKilled(dst) {
		return act, fmt.Errorf("send to endpoint %d: %w", dst, ErrPeerDown)
	}
	e.mu.Lock()
	e.sent++
	if p.killActive() && p.KillPeer == e.id && e.sent >= p.KillAfter {
		e.mu.Unlock()
		e.kill()
		return act, ErrKilled
	}
	if p.partitioned(e.id, dst) {
		e.mu.Unlock()
		act.drop = true
		return act, nil
	}
	if p.Drop > 0 && e.rng.Float64() < p.Drop {
		act.drop = true
	}
	if p.Dup > 0 && e.rng.Float64() < p.Dup {
		act.dup = true
	}
	act.delay = p.Delay
	if p.Jitter > 0 {
		act.delay += time.Duration(e.rng.Int63n(int64(p.Jitter)))
	}
	e.mu.Unlock()
	return act, nil
}

// kill fail-stops this endpoint (see the package comment for the
// split between per-process and in-process inner transports).
func (e *Endpoint) kill() {
	e.killOnce.Do(func() {
		e.killed.Store(true)
		if e.killCh != nil {
			close(e.killCh)
		}
		if len(e.t.inner.Local()) == 1 {
			// One endpoint per process: the process is dead, take its
			// listener and connections with it so peers see broken
			// streams. Async because Close may block on in-flight IO.
			go e.t.inner.Close()
		}
	})
}

// Send applies the plan and forwards to the inner endpoint. Ownership
// of payload transfers here as with any transport: a dropped message's
// payload is left to the garbage collector.
func (e *Endpoint) Send(dst int, payload []byte) error {
	if dst == e.id {
		return e.inner.Send(dst, payload)
	}
	act, err := e.decide(dst)
	if err != nil {
		return err
	}
	if act.drop {
		return nil
	}
	var dup []byte
	if act.dup {
		dup = append([]byte(nil), payload...)
	}
	if act.delay > 0 {
		time.Sleep(act.delay)
	}
	if err := e.inner.Send(dst, payload); err != nil {
		return err
	}
	if dup != nil {
		return e.inner.Send(dst, dup)
	}
	return nil
}

// Recv forwards the inner receive stream. For the kill target it runs
// through a pump goroutine so the endpoint's dispatch loop unblocks the
// moment the endpoint dies, even though the shared inner transport is
// still alive for the survivors.
func (e *Endpoint) Recv() (int, []byte, bool) {
	if e.killCh == nil {
		return e.inner.Recv()
	}
	e.pumpOnce.Do(func() {
		e.inCh = make(chan recvItem)
		go func() {
			for {
				src, payload, ok := e.inner.Recv()
				if !ok {
					close(e.inCh)
					return
				}
				select {
				case e.inCh <- recvItem{src, payload}:
				case <-e.killCh:
					return
				}
			}
		}()
	})
	select {
	case it, ok := <-e.inCh:
		if !ok {
			return 0, nil, false
		}
		return it.src, it.payload, true
	case <-e.killCh:
		return 0, nil, false
	}
}
