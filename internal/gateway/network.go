package gateway

import (
	"fmt"
	"sync"
)

// Network is the simulated in-process network. Addresses have the form
// "sim://node/endpoint". Each send is delivered once, asynchronously; a
// send to an address nobody subscribes fails with ErrDisconnected. The
// fault-injecting counterpart is faultinject.FaultNet.
type Network struct {
	mu        sync.Mutex
	endpoints map[string]Handler

	wg     sync.WaitGroup
	closed bool
}

// NewNetwork creates a simulated network. The seed is unused: nothing in
// the network is random.
func NewNetwork(seed int64) *Network {
	return &Network{endpoints: map[string]Handler{}}
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

// Send implements Transport: asynchronous delivery of one copy.
func (n *Network) Send(dest string, payload []byte, props map[string]string) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return fmt.Errorf("gateway: network closed")
	}
	h, ok := n.endpoints[dest]
	n.mu.Unlock()
	if !ok {
		return ErrDisconnected
	}

	// Copy to decouple from the caller's buffers.
	p := append([]byte(nil), payload...)
	pr := make(map[string]string, len(props))
	for k, v := range props {
		pr[k] = v
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		// The sender has returned: a refused delivery is lost, as on a
		// real network.
		_ = h(p, pr)
	}()
	return nil
}
