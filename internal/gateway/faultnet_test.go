package gateway_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
)

// TestReliablePartitionHealRetransmitsResume cuts first the data direction,
// then the ack direction of a FaultNet link and asserts that capped-backoff
// retransmission rides out both partitions and that receiver dedup holds
// across the heal: every message is admitted exactly once even though the
// lost-ack phase forces duplicate deliveries.
func TestReliablePartitionHealRetransmitsResume(t *testing.T) {
	fn := faultinject.NewFaultNet(3)
	recv, err := gateway.NewReliable(fn, "fnet://b/in", time.Millisecond, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var mu sync.Mutex
	admitted := map[string]int{}
	if err := recv.Subscribe(func(p []byte, _ map[string]string) error {
		mu.Lock()
		admitted[string(p)]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	send, err := gateway.NewReliable(fn, "fnet://a/acks", time.Millisecond, 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}

	// Phase 1: data direction partitioned; sends must survive on retransmit.
	fn.Partition("fnet://b")
	acks := make(chan error, 8)
	for i := 0; i < 4; i++ {
		send.SendAsync("fnet://b/in", []byte(fmt.Sprintf("p1-%d", i)), nil, func(err error) { acks <- err })
	}
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	if len(admitted) != 0 {
		mu.Unlock()
		t.Fatal("messages crossed the data partition")
	}
	mu.Unlock()
	fn.HealPartition("fnet://b")
	for i := 0; i < 4; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("phase-1 send failed after heal: %v", err)
		}
	}

	// Phase 2: ack direction partitioned; the receiver admits once, the
	// sender keeps retransmitting, dedup suppresses the replays.
	fn.Partition("fnet://a")
	for i := 0; i < 4; i++ {
		send.SendAsync("fnet://b/in", []byte(fmt.Sprintf("p2-%d", i)), nil, func(err error) { acks <- err })
	}
	gateway.WaitUntil(t, time.Second, "phase-2 deliveries", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(admitted) == 8
	})
	time.Sleep(10 * time.Millisecond) // let replays hammer the dedup window
	fn.HealPartition("fnet://a")
	for i := 0; i < 4; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("phase-2 send failed after heal: %v", err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(admitted) != 8 {
		t.Fatalf("admitted %d distinct messages, want 8", len(admitted))
	}
	for m, n := range admitted {
		if n != 1 {
			t.Fatalf("message %q admitted %d times", m, n)
		}
	}
	if _, retrans, _ := send.Stats(); retrans == 0 {
		t.Fatal("no retransmissions across two partitions")
	}
	if _, _, dups := recv.Stats(); dups == 0 {
		t.Fatal("lost-ack phase produced no suppressed duplicates")
	}
}

// memSessionStore is an in-memory SessionStore for sender-restart tests.
type memSessionStore struct {
	mu   sync.Mutex
	send map[string]uint64
	recv map[string][]gateway.RecvSession
}

func newMemSessionStore() *memSessionStore {
	return &memSessionStore{send: map[string]uint64{}, recv: map[string][]gateway.RecvSession{}}
}

func (m *memSessionStore) SendNext(source string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.send[source]
}

func (m *memSessionStore) ReserveSend(source string, upTo uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if upTo > m.send[source] {
		m.send[source] = upTo
	}
	return nil
}

func (m *memSessionStore) RecvSessions(endpoint string) []gateway.RecvSession {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recv[endpoint]
}

// TestReliableRestartedSenderResumesSequence is the regression test for the
// sender sequence restarting at 0 after reconstruction: without the durable
// next-seq reservation the second sender incarnation reissues sequence
// numbers 1..n, the receiver's window flags them as duplicates, re-acks,
// and the new messages are silently lost — acked but never admitted.
func TestReliableRestartedSenderResumesSequence(t *testing.T) {
	fn := faultinject.NewFaultNet(5)
	store := newMemSessionStore()
	recv, err := gateway.NewReliable(fn, "fnet://b/in", time.Millisecond, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var mu sync.Mutex
	var got []string
	if err := recv.Subscribe(func(p []byte, _ map[string]string) error {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	sendBatch := func(r *gateway.Reliable, label string, n int) {
		t.Helper()
		acks := make(chan error, n)
		for i := 0; i < n; i++ {
			r.SendAsync("fnet://b/in", []byte(fmt.Sprintf("%s-%d", label, i)), nil, func(err error) { acks <- err })
		}
		for i := 0; i < n; i++ {
			if err := <-acks; err != nil {
				t.Fatalf("%s send %d: %v", label, i, err)
			}
		}
	}

	s1, err := gateway.NewReliableOptions(fn, "fnet://a/acks", gateway.ReliableOptions{RetryInterval: time.Millisecond, MaxRetries: 1000, Session: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sendBatch(s1, "gen1", 3)
	s1.Close()

	// Restart: a new incarnation of the same source, same session store.
	s2, err := gateway.NewReliableOptions(fn, "fnet://a/acks", gateway.ReliableOptions{RetryInterval: time.Millisecond, MaxRetries: 1000, Session: store})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sendBatch(s2, "gen2", 3)

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 6 {
		t.Fatalf("receiver admitted %d messages, want 6 (restarted sender's messages dropped as duplicates?): %v", len(got), got)
	}
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m] {
			t.Fatalf("duplicate admission of %q", m)
		}
		seen[m] = true
	}
}

func TestReliableDeliversDespiteLoss(t *testing.T) {
	n := faultinject.NewFaultNet(7)
	defer n.Close()
	n.SetDropRate(0.4)

	recv, err := gateway.NewReliable(n, "fnet://b/in", 5*time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var mu sync.Mutex
	var got []string
	if err := recv.Subscribe(func(p []byte, _ map[string]string) error {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	send, err := gateway.NewReliable(n, "fnet://a/out", 5*time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}

	const msgs = 30
	var wg sync.WaitGroup
	errs := make(chan error, msgs)
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		send.SendAsync("fnet://b/in", []byte(fmt.Sprintf("m%d", i)), nil, func(err error) {
			errs <- err
			wg.Done()
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("send failed: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	// At-least-once with dedup = exactly-once to the application.
	if len(got) != msgs {
		t.Fatalf("delivered %d unique messages, want %d", len(got), msgs)
	}
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m] {
			t.Fatalf("duplicate delivered to application: %s", m)
		}
		seen[m] = true
	}
	_, retransmits, _ := send.Stats()
	if retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestReliableDedupUnderDuplication(t *testing.T) {
	n := faultinject.NewFaultNet(3)
	defer n.Close()
	n.SetDupRate(0.8)
	recv, _ := gateway.NewReliable(n, "fnet://b/in", 5*time.Millisecond, 50)
	defer recv.Close()
	var count atomic.Int64
	recv.Subscribe(func([]byte, map[string]string) error {
		count.Add(1)
		return nil
	})
	send, _ := gateway.NewReliable(n, "fnet://a/out", 5*time.Millisecond, 50)
	defer send.Close()
	send.Subscribe(func([]byte, map[string]string) error { return nil })
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		send.SendAsync("fnet://b/in", []byte(fmt.Sprintf("%d", i)), nil, func(err error) { done <- err })
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let duplicates land
	if got := count.Load(); got != 10 {
		t.Fatalf("application saw %d messages, want 10", got)
	}
}

func TestReliableRetryBudgetExhausted(t *testing.T) {
	n := faultinject.NewFaultNet(5)
	defer n.Close()
	n.SetDropRate(1.0) // nothing gets through
	unsub, _ := n.Subscribe("fnet://b/in", func([]byte, map[string]string) error { return nil })
	defer unsub()
	send, _ := gateway.NewReliable(n, "fnet://a/out", time.Millisecond, 3)
	defer send.Close()
	send.Subscribe(func([]byte, map[string]string) error { return nil })
	done := make(chan error, 1)
	send.SendAsync("fnet://b/in", []byte("x"), nil, func(err error) { done <- err })
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected failure after retry budget")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no completion")
	}
}
