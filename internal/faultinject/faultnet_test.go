package faultinject

import (
	"fmt"
	"sync"
	"testing"

	"demaq/internal/gateway"
)

// run pushes n sends through a FaultNet with one subscribed endpoint and
// returns (trace, delivered payload strings).
func runFaultNet(t *testing.T, fn *FaultNet, n int) ([]NetOp, []string) {
	t.Helper()
	var mu sync.Mutex
	var got []string
	unsub, err := fn.Subscribe("fnet://b/in", func(p []byte, _ map[string]string) error {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	for i := 0; i < n; i++ {
		if err := fn.Send("fnet://b/in", []byte(fmt.Sprintf("m%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	return fn.Trace(), got
}

// TestFaultNetDeterministic: identical seed + identical op schedule =>
// identical fates and identical delivered sequence, op for op.
func TestFaultNetDeterministic(t *testing.T) {
	var traces [][]NetOp
	var deliveries [][]string
	for run := 0; run < 2; run++ {
		fn := NewFaultNet(7)
		fn.SetDropRate(0.2)
		fn.SetDupRate(0.1)
		fn.SetReorderRate(0.1)
		tr, got := runFaultNet(t, fn, 200)
		traces = append(traces, tr)
		deliveries = append(deliveries, got)
	}
	if len(traces[0]) != len(traces[1]) {
		t.Fatalf("trace lengths differ: %d vs %d", len(traces[0]), len(traces[1]))
	}
	for i := range traces[0] {
		if traces[0][i] != traces[1][i] {
			t.Fatalf("op %d differs: %v vs %v", i, traces[0][i], traces[1][i])
		}
	}
	if len(deliveries[0]) != len(deliveries[1]) {
		t.Fatalf("delivery counts differ: %d vs %d", len(deliveries[0]), len(deliveries[1]))
	}
	for i := range deliveries[0] {
		if deliveries[0][i] != deliveries[1][i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, deliveries[0][i], deliveries[1][i])
		}
	}
	// The schedule must actually exercise every fate.
	fates := map[string]int{}
	for _, op := range traces[0] {
		fates[op.Fate]++
	}
	for _, f := range []string{"deliver", "drop", "dup", "hold"} {
		if fates[f] == 0 {
			t.Fatalf("fate %q never occurred in %v", f, fates)
		}
	}
}

// TestFaultNetFates: targeted single-op drop, duplication delivering twice,
// and a held transfer arriving after the send that follows it.
func TestFaultNetFates(t *testing.T) {
	fn := NewFaultNet(1)
	var got []string
	unsub, _ := fn.Subscribe("fnet://b/in", func(p []byte, _ map[string]string) error {
		got = append(got, string(p))
		return nil
	})
	defer unsub()

	fn.DropAt(2)
	fn.Send("fnet://b/in", []byte("a"), nil)
	fn.Send("fnet://b/in", []byte("lost"), nil)
	fn.Send("fnet://b/in", []byte("b"), nil)
	want := []string{"a", "b"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("after targeted drop: %v, want %v", got, want)
	}

	// Force a hold, then a normal send: held transfer arrives second.
	got = nil
	fn.SetReorderRate(1)
	fn.Send("fnet://b/in", []byte("first"), nil)
	fn.SetReorderRate(0)
	fn.Send("fnet://b/in", []byte("second"), nil)
	if len(got) != 2 || got[0] != "second" || got[1] != "first" {
		t.Fatalf("reorder: %v, want [second first]", got)
	}
}

// TestFaultNetVoidAndPartition: unsubscribed endpoints and partitioned
// destinations swallow transfers silently — the sender sees success and
// must rely on its own retransmission, exactly like a rebooting peer.
func TestFaultNetVoidAndPartition(t *testing.T) {
	fn := NewFaultNet(1)
	if err := fn.Send("fnet://nobody/in", []byte("x"), nil); err != nil {
		t.Fatalf("send to unsubscribed endpoint: %v, want silent drop", err)
	}

	delivered := 0
	unsub, _ := fn.Subscribe("fnet://b/in", func([]byte, map[string]string) error {
		delivered++
		return nil
	})
	defer unsub()
	fn.Partition("fnet://b")
	if err := fn.Send("fnet://b/in", []byte("x"), nil); err != nil {
		t.Fatalf("send into partition: %v, want silent drop", err)
	}
	if delivered != 0 {
		t.Fatal("transfer crossed the partition")
	}
	fn.HealPartition("fnet://b")
	fn.Send("fnet://b/in", []byte("x"), nil)
	if delivered != 1 {
		t.Fatalf("delivered %d after heal, want 1", delivered)
	}

	tr := fn.Trace()
	if tr[0].Fate != "void" || tr[1].Fate != "partitioned" || tr[2].Fate != "deliver" {
		t.Fatalf("fates %v %v %v, want void/partitioned/deliver", tr[0].Fate, tr[1].Fate, tr[2].Fate)
	}

	// Down endpoints keep the fail-fast contract.
	fn.SetDown("fnet://b/in", true)
	if err := fn.Send("fnet://b/in", nil, nil); err != gateway.ErrDisconnected {
		t.Fatalf("send to down endpoint: %v, want ErrDisconnected", err)
	}
}

// TestFaultNetOpHook: the hook sees every op with its final fate, in order,
// and can observe the op counter the torture harness arms crash sites on.
func TestFaultNetOpHook(t *testing.T) {
	fn := NewFaultNet(1)
	unsub, _ := fn.Subscribe("fnet://b/in", func([]byte, map[string]string) error { return nil })
	defer unsub()
	var ns []int
	fn.SetOpHook(func(op NetOp) { ns = append(ns, op.N) })
	for i := 0; i < 5; i++ {
		fn.Send("fnet://b/in", []byte("x"), nil)
	}
	if len(ns) != 5 {
		t.Fatalf("hook fired %d times, want 5", len(ns))
	}
	for i, n := range ns {
		if n != i+1 {
			t.Fatalf("hook op numbers %v not sequential", ns)
		}
	}
	if fn.Ops() != 5 {
		t.Fatalf("Ops() = %d, want 5", fn.Ops())
	}
}
