package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHTTPBodyLimitRejected(t *testing.T) {
	tr := NewHTTPTransportOptions(HTTPOptions{MaxBodyBytes: 1024})
	defer tr.Close()
	addr := "http://127.0.0.1:39411/queues/in"
	unsub, err := tr.Subscribe(addr, func([]byte, map[string]string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	resp, err := http.Post(addr, "application/xml", bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: got %s, want 413", resp.Status)
	}

	// A body exactly at the limit still goes through.
	resp, err = http.Post(addr, "application/xml", bytes.NewReader(make([]byte, 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at-limit body: got %s, want 202", resp.Status)
	}
}

func TestHTTPUnavailableShedsWith503(t *testing.T) {
	tr := NewHTTPTransport()
	defer tr.Close()
	addr := "http://127.0.0.1:39412/queues/in"
	unsub, err := tr.Subscribe(addr, func([]byte, map[string]string) error {
		return fmt.Errorf("engine: degraded read-only mode: %w", ErrUnavailable)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	resp, err := http.Post(addr, "application/xml", strings.NewReader("<m/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded handler: got %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 response carries no Retry-After")
	}
}

func TestHTTPServerLimitsApplied(t *testing.T) {
	tr := NewHTTPTransportOptions(HTTPOptions{ReadTimeout: 7 * time.Second})
	defer tr.Close()
	addr := "http://127.0.0.1:39413/queues/in"
	unsub, err := tr.Subscribe(addr, func([]byte, map[string]string) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, s := range tr.servers {
		if s.srv.ReadTimeout != 7*time.Second {
			t.Fatalf("ReadTimeout %v not applied to listener", s.srv.ReadTimeout)
		}
		if s.srv.WriteTimeout != DefaultHTTPWriteTimeout || s.srv.MaxHeaderBytes != DefaultHTTPMaxHeaderBytes {
			t.Fatal("defaulted limits not applied to listener")
		}
	}
}

func TestHTTPOverloadedShedsWith429(t *testing.T) {
	tr := NewHTTPTransport()
	defer tr.Close()
	addr := "http://127.0.0.1:39414/queues/in"
	unsub, err := tr.Subscribe(addr, func([]byte, map[string]string) error {
		return fmt.Errorf("engine: ingest backlog full: %w", ErrOverloaded)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	resp, err := http.Post(addr, "application/xml", strings.NewReader("<m/>"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded handler: got %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After")
	}
}

// countingTransport drops every send and counts them.
type countingTransport struct{ sends atomic.Int64 }

func (c *countingTransport) Scheme() string { return "cnt" }
func (c *countingTransport) Send(string, []byte, map[string]string) error {
	c.sends.Add(1)
	return nil // accepted by the wire, but no ack will ever arrive
}
func (c *countingTransport) Subscribe(string, Handler) (func(), error) {
	return func() {}, nil
}

func TestReliableCloseCancelsInFlightRetries(t *testing.T) {
	ct := &countingTransport{}
	send, err := NewReliable(ct, "cnt://a/out", time.Millisecond, 1000)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	send.SendAsync("cnt://b/in", []byte("x"), nil, func(err error) { done <- err })

	// Let a few retransmissions happen, then close mid-flight.
	time.Sleep(10 * time.Millisecond)
	send.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("completion should carry the close error")
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not fail the pending send")
	}
	// No transmission may happen on behalf of a cancelled send: the count
	// must stop moving once the already-armed timer has drained.
	time.Sleep(5 * time.Millisecond)
	before := ct.sends.Load()
	time.Sleep(50 * time.Millisecond)
	if after := ct.sends.Load(); after != before {
		t.Fatalf("%d transmissions after Close", after-before)
	}
}

func TestReliableBackoffGrowsAndCaps(t *testing.T) {
	r, err := NewReliable(&countingTransport{}, "cnt://a/out", 10*time.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	prevMax := time.Duration(0)
	for tries := 1; tries <= 8; tries++ {
		// The jitter range for retransmission n is [base/2, base] with
		// base = min(interval * 2^(n-1), maxWait).
		base := 10 * time.Millisecond << (tries - 1)
		if base > r.maxWait {
			base = r.maxWait
		}
		for i := 0; i < 50; i++ {
			d := r.backoff(tries)
			if d < base/2 || d > base {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", tries, d, base/2, base)
			}
		}
		if base < prevMax {
			t.Fatalf("backoff ceiling shrank at try %d", tries)
		}
		prevMax = base
	}
	if prevMax != r.maxWait {
		t.Fatalf("backoff never reached the cap: %v vs %v", prevMax, r.maxWait)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// relayTransport hands the test direct access to a subscribed handler so a
// million protocol messages can be driven without timers or goroutines.
type relayTransport struct {
	mu       sync.Mutex
	handlers map[string]Handler
}

func (rt *relayTransport) Scheme() string { return "relay" }
func (rt *relayTransport) Send(dest string, payload []byte, props map[string]string) error {
	rt.mu.Lock()
	h := rt.handlers[dest]
	rt.mu.Unlock()
	if h != nil {
		_ = h(payload, props)
	}
	return nil
}
func (rt *relayTransport) Subscribe(addr string, h Handler) (func(), error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.handlers == nil {
		rt.handlers = map[string]Handler{}
	}
	rt.handlers[addr] = h
	return func() {
		rt.mu.Lock()
		delete(rt.handlers, addr)
		rt.mu.Unlock()
	}, nil
}

// TestReliableRecvWindowMemoryFlat replaces the old unbounded `seen` map
// check: after a million admitted transfers from one peer, the dedup state
// is still one fixed-size window, and old in-window duplicates are still
// suppressed.
func TestReliableRecvWindowMemoryFlat(t *testing.T) {
	rt := &relayTransport{}
	r, err := NewReliable(rt, "relay://b/in", time.Millisecond, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	admits := 0
	if err := r.Subscribe(func([]byte, map[string]string) error {
		admits++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	deliver := rt.handlers["relay://b/in"]
	rt.mu.Unlock()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 1_000_000
	for i := 1; i <= n; i++ {
		props := map[string]string{propSeq: strconv.FormatUint(uint64(i), 10), propSource: "relay://peer/acks"}
		if err := deliver(nil, props); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if admits != n {
		t.Fatalf("admitted %d of %d transfers", admits, n)
	}
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if grown > 4<<20 {
		t.Fatalf("heap grew %d bytes over %d transfers; dedup state is not flat", grown, n)
	}

	// In-window replays stay suppressed; ancient sequence numbers are
	// treated as long-acked duplicates, not re-admitted.
	for _, seq := range []uint64{n, n - 100, n - 1023, 1} {
		props := map[string]string{propSeq: strconv.FormatUint(seq, 10), propSource: "relay://peer/acks"}
		if err := deliver(nil, props); err != nil {
			t.Fatal(err)
		}
	}
	if admits != n {
		t.Fatalf("replays were re-admitted: %d admits after %d transfers", admits, n)
	}
	if _, _, dups := r.Stats(); dups != 4 {
		t.Fatalf("duplicate counter %d, want 4", dups)
	}
}
