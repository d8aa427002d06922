// Package gateway implements the Demaq communication subsystem (paper
// Sec. 2.1.2/4.2): transports that back gateway queues, an at-least-once
// reliable-messaging layer standing in for WS-ReliableMessaging, and an
// HMAC message-integrity policy standing in for WS-Security.
//
// Two transports are provided. The simulated in-process network carries
// traffic between Demaq nodes in one process — the offline substitute for
// the paper's SOAP/HTTP/SMTP stack; its fault-injecting counterpart for
// tests is faultinject.FaultNet. The HTTP transport is a real loopback
// binding with the message payload as the request body and properties as
// X-Demaq-Property headers.
package gateway

import (
	"errors"
	"fmt"
	"strings"
)

// Handler consumes an incoming message at an endpoint.
type Handler func(payload []byte, props map[string]string) error

// ErrDisconnected reports a permanently unreachable endpoint; the engine
// converts it into a <disconnectedTransport/> error message (Fig. 10).
var ErrDisconnected = errors.New("gateway: transport endpoint disconnected")

// ErrUnavailable reports that the receiving node cannot accept ingest
// right now — the engine wraps it into the error its degraded read-only
// mode returns, and the HTTP transport maps it to 503 with a Retry-After
// so well-behaved senders back off instead of hammering a dying node.
var ErrUnavailable = errors.New("gateway: service unavailable")

// ErrOverloaded reports that the node is healthy but its ingest backlog is
// at capacity — a transient overload, distinct from the degraded read-only
// ErrUnavailable. The HTTP transport maps it to 429 with a Retry-After:
// the client should retry the same request later, whereas a 503 signals
// the node itself may need operator attention.
var ErrOverloaded = errors.New("gateway: ingest overloaded")

// Transport moves messages between endpoint addresses.
type Transport interface {
	// Scheme returns the address scheme this transport serves ("sim",
	// "http").
	Scheme() string
	// Send delivers payload to dest asynchronously; an error reports
	// immediately-detectable failures (unknown address, disconnect).
	Send(dest string, payload []byte, props map[string]string) error
	// Subscribe registers a receiving endpoint; the returned function
	// unsubscribes.
	Subscribe(addr string, h Handler) (func(), error)
}

// SchemeOf extracts the scheme of an endpoint address.
func SchemeOf(addr string) string {
	if i := strings.Index(addr, "://"); i > 0 {
		return addr[:i]
	}
	return ""
}

// Registry dispatches sends/subscribes across transports by scheme.
type Registry struct {
	transports map[string]Transport
}

// NewRegistry builds a registry from transports.
func NewRegistry(ts ...Transport) *Registry {
	r := &Registry{transports: map[string]Transport{}}
	for _, t := range ts {
		r.transports[t.Scheme()] = t
	}
	return r
}

// Add registers another transport.
func (r *Registry) Add(t Transport) { r.transports[t.Scheme()] = t }

// For returns the transport serving an address.
func (r *Registry) For(addr string) (Transport, error) {
	scheme := SchemeOf(addr)
	t, ok := r.transports[scheme]
	if !ok {
		return nil, fmt.Errorf("gateway: no transport for scheme %q (address %s)", scheme, addr)
	}
	return t, nil
}

// IngestBytesPooled sums the pooled-ingest byte counters of the registered
// transports that report one (currently the HTTP transport, which reads
// request bodies into recycled buffers).
func (r *Registry) IngestBytesPooled() uint64 {
	var n uint64
	for _, t := range r.transports {
		if c, ok := t.(interface{ IngestBytesPooled() uint64 }); ok {
			n += c.IngestBytesPooled()
		}
	}
	return n
}
