package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"demaq/internal/gateway"
)

// FaultNet is the deterministic fault-injecting counterpart of gateway.Network:
// every Send is a numbered, traced operation whose fate — delivered,
// dropped, duplicated, held back for reordering, or cut by a partition —
// is a pure function of (seed, operation schedule). Addresses have the
// form "fnet://node/endpoint".
//
// Unlike gateway.Network, delivery is synchronous and in-line on the sender's
// goroutine: there are no delivery goroutines and no sleeps, so an
// identical workload replays the identical op sequence and the k-th
// operation is always the same transfer. That makes network op sites
// enumerable crash points in the same way FaultFS makes storage op sites
// enumerable: the end-to-end torture harness arms "crash the node when net
// op k fires" exactly like "crash the disk at write k".
//
// Two behaviors differ deliberately from gateway.Network:
//
//   - Sending to an address nobody subscribes to is a silent drop ("void"),
//     not gateway.ErrDisconnected: a rebooting node's endpoints are briefly gone,
//     and the reliable layer's retransmits must ride out the outage rather
//     than abort.
//   - Partition(prefix) silently drops every transfer whose destination
//     matches the prefix — per direction, so a two-node split is two calls
//     and an asymmetric (one-way) partition is one.
type FaultNet struct {
	mu        sync.Mutex
	rng       *rand.Rand
	endpoints map[string]gateway.Handler
	down      map[string]bool
	cuts      []string // destination prefixes currently partitioned away

	nOps  int
	trace []NetOp

	dropRate    float64
	dupRate     float64
	reorderRate float64
	dropAt      map[int]bool
	held        []netDelivery // reorder buffer, flushed after later sends

	hook func(NetOp) // crash-site injection; called outside fn.mu

	delivered, dropped uint64
	closed             bool
}

// NetOp records one numbered send operation and its resolved fate.
type NetOp struct {
	N    int
	Dest string
	Fate string // "deliver", "drop", "dup", "hold", "partitioned", "void"
	Len  int
}

func (op NetOp) String() string {
	return fmt.Sprintf("#%d %s -> %s len=%d", op.N, op.Fate, op.Dest, op.Len)
}

type netDelivery struct {
	h       gateway.Handler
	payload []byte
	props   map[string]string
}

// NewFaultNet creates a deterministic simulated network.
func NewFaultNet(seed int64) *FaultNet {
	return &FaultNet{
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: map[string]gateway.Handler{},
		down:      map[string]bool{},
		dropAt:    map[int]bool{},
	}
}

// Scheme implements gateway.Transport.
func (fn *FaultNet) Scheme() string { return "fnet" }

// SetDropRate drops the given fraction of sends (seeded, deterministic).
func (fn *FaultNet) SetDropRate(p float64) {
	fn.mu.Lock()
	fn.dropRate = p
	fn.mu.Unlock()
}

// SetDupRate duplicates the given fraction of sends.
func (fn *FaultNet) SetDupRate(p float64) {
	fn.mu.Lock()
	fn.dupRate = p
	fn.mu.Unlock()
}

// SetReorderRate holds back the given fraction of sends; a held transfer is
// delivered after the next send to any destination (pairwise reordering).
func (fn *FaultNet) SetReorderRate(p float64) {
	fn.mu.Lock()
	fn.reorderRate = p
	fn.mu.Unlock()
}

// DropAt drops exactly the numbered operation — targeted single-op loss for
// regression tests.
func (fn *FaultNet) DropAt(n int) {
	fn.mu.Lock()
	fn.dropAt[n] = true
	fn.mu.Unlock()
}

// SetDown marks an endpoint as administratively unreachable: sends fail
// fast with gateway.ErrDisconnected (Network's dead-link behavior, kept for the
// deadLink rule path).
func (fn *FaultNet) SetDown(addr string, down bool) {
	fn.mu.Lock()
	fn.down[addr] = down
	fn.mu.Unlock()
}

// Partition silently cuts every transfer whose destination has the given
// prefix. Cutting each direction of a node pair is two calls; healing is
// HealPartition.
func (fn *FaultNet) Partition(destPrefix string) {
	fn.mu.Lock()
	fn.cuts = append(fn.cuts, destPrefix)
	fn.mu.Unlock()
}

// HealPartition removes a Partition cut.
func (fn *FaultNet) HealPartition(destPrefix string) {
	fn.mu.Lock()
	keep := fn.cuts[:0]
	for _, c := range fn.cuts {
		if c != destPrefix {
			keep = append(keep, c)
		}
	}
	fn.cuts = keep
	fn.mu.Unlock()
}

// SetOpHook installs a callback invoked after every numbered operation is
// resolved (outside the network lock, before delivery). The torture harness
// uses it to trigger a whole-node crash at net op k.
func (fn *FaultNet) SetOpHook(h func(NetOp)) {
	fn.mu.Lock()
	fn.hook = h
	fn.mu.Unlock()
}

// Ops returns the number of send operations so far.
func (fn *FaultNet) Ops() int {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.nOps
}

// Trace returns a copy of the recorded operations.
func (fn *FaultNet) Trace() []NetOp {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return append([]NetOp(nil), fn.trace...)
}

// Stats returns (delivered, dropped) counters.
func (fn *FaultNet) Stats() (delivered, dropped uint64) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	return fn.delivered, fn.dropped
}

// Close stops the network; subsequent sends fail.
func (fn *FaultNet) Close() {
	fn.mu.Lock()
	fn.closed = true
	fn.held = nil
	fn.mu.Unlock()
}

// Subscribe implements gateway.Transport.
func (fn *FaultNet) Subscribe(addr string, h gateway.Handler) (func(), error) {
	fn.mu.Lock()
	defer fn.mu.Unlock()
	if _, ok := fn.endpoints[addr]; ok {
		return nil, fmt.Errorf("gateway: endpoint %s already subscribed", addr)
	}
	fn.endpoints[addr] = h
	return func() {
		fn.mu.Lock()
		delete(fn.endpoints, addr)
		fn.mu.Unlock()
	}, nil
}

// Send implements gateway.Transport. The operation is numbered and its fate
// resolved under the lock; the handler runs synchronously on the caller's
// goroutine with the lock released, so handlers may send (acks) without
// deadlocking. A send that delivers also flushes any held (reordered)
// transfers queued before it — they arrive after it, which is the
// reordering.
func (fn *FaultNet) Send(dest string, payload []byte, props map[string]string) error {
	fn.mu.Lock()
	if fn.closed {
		fn.mu.Unlock()
		return fmt.Errorf("gateway: network closed")
	}
	if fn.down[dest] {
		fn.mu.Unlock()
		return gateway.ErrDisconnected
	}
	fn.nOps++
	op := NetOp{N: fn.nOps, Dest: dest, Len: len(payload)}
	h, subscribed := fn.endpoints[dest]

	cut := false
	for _, c := range fn.cuts {
		if strings.HasPrefix(dest, c) {
			cut = true
			break
		}
	}
	copies := 0
	switch {
	case cut:
		op.Fate = "partitioned"
		fn.dropped++
	case !subscribed:
		// The endpoint is gone (node down or rebooting): the transfer
		// vanishes and the sender's reliable layer retransmits later.
		op.Fate = "void"
		fn.dropped++
	case fn.dropAt[op.N]:
		op.Fate = "drop"
		delete(fn.dropAt, op.N)
		fn.dropped++
	case fn.dropRate > 0 && fn.rng.Float64() < fn.dropRate:
		op.Fate = "drop"
		fn.dropped++
	case fn.dupRate > 0 && fn.rng.Float64() < fn.dupRate:
		op.Fate = "dup"
		copies = 2
	case fn.reorderRate > 0 && fn.rng.Float64() < fn.reorderRate:
		op.Fate = "hold"
		copies = 0
	default:
		op.Fate = "deliver"
		copies = 1
	}
	fn.trace = append(fn.trace, op)
	hook := fn.hook

	// Copy to decouple from the caller's buffers.
	var p []byte
	var pr map[string]string
	if op.Fate == "hold" || copies > 0 {
		p = append([]byte(nil), payload...)
		pr = make(map[string]string, len(props))
		for k, v := range props {
			pr[k] = v
		}
	}
	if op.Fate == "hold" {
		fn.held = append(fn.held, netDelivery{h: h, payload: p, props: pr})
	}
	// A resolved op releases the reorder buffer: held transfers arrive
	// after this op's own deliveries.
	var flush []netDelivery
	if op.Fate != "hold" && len(fn.held) > 0 {
		flush = fn.held
		fn.held = nil
	}
	fn.mu.Unlock()

	if hook != nil {
		hook(op)
	}
	for i := 0; i < copies; i++ {
		if err := h(p, pr); err == nil {
			fn.mu.Lock()
			fn.delivered++
			fn.mu.Unlock()
		}
	}
	for _, d := range flush {
		if err := d.h(d.payload, d.props); err == nil {
			fn.mu.Lock()
			fn.delivered++
			fn.mu.Unlock()
		}
	}
	return nil
}
