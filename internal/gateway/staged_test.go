package gateway

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestReliableStagedHandler drives SubscribeStaged with a handler whose
// second phase the test holds: first phases run one at a time per peer, in
// arrival order, and the admit lock does not cover the wait; nothing is
// acknowledged before its wait returned — not to a retransmit either — and
// a transfer whose wait failed never is.
func TestReliableStagedHandler(t *testing.T) {
	const peer, node = "sim://a/acks", "sim://b/in"
	n := NewNetwork(1)
	defer n.Close()
	recv, err := NewReliable(n, node, time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	var mu sync.Mutex
	var inFirst, maxInFirst int
	var snapshots []RecvSession
	var acks []string
	gate := make(chan struct{})
	err = recv.SubscribeStaged(func(p []byte, _ map[string]string, s RecvSession) (func() error, error) {
		mu.Lock()
		inFirst++
		maxInFirst = max(maxInFirst, inFirst)
		mu.Unlock()
		time.Sleep(2 * time.Millisecond) // long enough for the others to arrive
		mu.Lock()
		inFirst--
		snapshots = append(snapshots, RecvSession{Peer: s.Peer, High: s.High, Window: append([]uint64(nil), s.Window...)})
		mu.Unlock()
		lost := string(p) == "lost"
		return func() error {
			<-gate
			if lost {
				return errors.New("the log is gone")
			}
			return nil
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Subscribe(peer, func(_ []byte, props map[string]string) error {
		mu.Lock()
		acks = append(acks, props[propAck])
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	send := func(seq uint64, payload string) {
		t.Helper()
		if err := n.Send(node, []byte(payload), map[string]string{propSeq: strconv.FormatUint(seq, 10), propSource: peer}); err != nil {
			t.Fatal(err)
		}
	}
	acked := func() string {
		mu.Lock()
		defer mu.Unlock()
		sorted := append([]string(nil), acks...)
		sort.Strings(sorted)
		return strings.Join(sorted, ",")
	}
	dups := func() uint64 { _, _, d := recv.Stats(); return d }

	// Three transfers in flight: all three get through their first phase
	// while none of them is durable.
	send(1, "one")
	send(2, "two")
	send(3, "lost")
	waitUntil(t, 10*time.Second, "three first phases", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(snapshots) == 3
	})
	if maxInFirst != 1 {
		t.Fatalf("%d first phases of one peer ran at the same time", maxInFirst)
	}
	// Each snapshot is the previous one plus one transfer.
	for i, s := range snapshots {
		bits := 0
		for _, w := range s.Window {
			for ; w != 0; w &= w - 1 {
				bits++
			}
		}
		if s.Peer != peer || bits != i+1 {
			t.Fatalf("snapshot %d lists %d transfers of %q: %+v", i, bits, s.Peer, s)
		}
	}
	// A retransmit of an un-durable transfer is a duplicate nobody answers.
	send(1, "one")
	waitUntil(t, 10*time.Second, "the duplicate", func() bool { return dups() == 1 })
	time.Sleep(10 * time.Millisecond)
	if got := acked(); got != "" {
		t.Fatalf("acks %q on the wire before anything was durable", got)
	}

	close(gate)
	waitUntil(t, 10*time.Second, "the acks of the durable transfers", func() bool { return acked() == "1,2" })
	// From now on a retransmit of a durable transfer is re-acknowledged, one
	// of the lost transfer never.
	send(3, "lost")
	send(2, "two")
	waitUntil(t, 10*time.Second, "the re-ack", func() bool { return dups() == 3 && acked() == "1,2,2" })
	time.Sleep(10 * time.Millisecond)
	if got := acked(); got != "1,2,2" {
		t.Fatalf("acks %q: the transfer whose wait failed was acknowledged", got)
	}
}
