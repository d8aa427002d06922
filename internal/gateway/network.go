package gateway

import (
	"fmt"
	"math/rand"
	"sync"
)

// Network is the simulated in-process network. Addresses have the form
// "sim://node/endpoint". Failure behavior is configurable per network and
// per destination, with a seeded generator for reproducible experiments.
type Network struct {
	mu        sync.Mutex
	endpoints map[string]Handler
	rng       *rand.Rand
	lossRate  float64
	dupRate   float64
	down      map[string]bool
	delivered uint64
	dropped   uint64

	wg     sync.WaitGroup
	closed bool
}

// NewNetwork creates a simulator with a deterministic seed.
func NewNetwork(seed int64) *Network {
	return &Network{
		endpoints: map[string]Handler{},
		rng:       rand.New(rand.NewSource(seed)),
		down:      map[string]bool{},
	}
}

// SetLossRate drops the given fraction of messages silently.
func (n *Network) SetLossRate(p float64) {
	n.mu.Lock()
	n.lossRate = p
	n.mu.Unlock()
}

// SetDupRate duplicates the given fraction of messages.
func (n *Network) SetDupRate(p float64) {
	n.mu.Lock()
	n.dupRate = p
	n.mu.Unlock()
}

// SetDown marks an endpoint as (un)reachable; sends to a down endpoint fail
// with ErrDisconnected.
func (n *Network) SetDown(addr string, down bool) {
	n.mu.Lock()
	n.down[addr] = down
	n.mu.Unlock()
}

// Stats returns (delivered, dropped) counters.
func (n *Network) Stats() (delivered, dropped uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.delivered, n.dropped
}

// Close waits for in-flight deliveries.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// Scheme implements Transport.
func (n *Network) Scheme() string { return "sim" }

// Subscribe implements Transport.
func (n *Network) Subscribe(addr string, h Handler) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.endpoints[addr]; ok {
		return nil, fmt.Errorf("gateway: endpoint %s already subscribed", addr)
	}
	n.endpoints[addr] = h
	return func() {
		n.mu.Lock()
		delete(n.endpoints, addr)
		n.mu.Unlock()
	}, nil
}

// Send implements Transport: asynchronous delivery with the configured
// loss/duplication.
func (n *Network) Send(dest string, payload []byte, props map[string]string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("gateway: network closed")
	}
	if n.down[dest] {
		n.mu.Unlock()
		return ErrDisconnected
	}
	h, ok := n.endpoints[dest]
	if !ok {
		n.mu.Unlock()
		return ErrDisconnected
	}
	copies := 1
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		copies = 0
		n.dropped++
	} else if n.dupRate > 0 && n.rng.Float64() < n.dupRate {
		copies = 2
	}
	n.mu.Unlock()

	// Copy to decouple from the caller's buffers.
	p := append([]byte(nil), payload...)
	pr := make(map[string]string, len(props))
	for k, v := range props {
		pr[k] = v
	}
	for i := 0; i < copies; i++ {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			if err := h(p, pr); err == nil {
				n.mu.Lock()
				n.delivered++
				n.mu.Unlock()
			}
		}()
	}
	return nil
}
