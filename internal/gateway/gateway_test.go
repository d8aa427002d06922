package gateway

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNetworkBasicDelivery(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	got := make(chan string, 1)
	unsub, err := n.Subscribe("sim://node/q", func(p []byte, props map[string]string) error {
		got <- string(p) + "|" + props["k"]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	if err := n.Send("sim://node/q", []byte("hello"), map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "hello|v" {
			t.Fatalf("delivered %q", s)
		}
	case <-time.After(time.Second):
		t.Fatal("not delivered")
	}
}

func TestNetworkUnknownAndDownEndpoints(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	if err := n.Send("sim://nowhere/q", nil, nil); err != ErrDisconnected {
		t.Fatalf("unknown endpoint: %v", err)
	}
	unsub, _ := n.Subscribe("sim://node/q", func([]byte, map[string]string) error { return nil })
	defer unsub()
	n.SetDown("sim://node/q", true)
	if err := n.Send("sim://node/q", nil, nil); err != ErrDisconnected {
		t.Fatalf("down endpoint: %v", err)
	}
	n.SetDown("sim://node/q", false)
	if err := n.Send("sim://node/q", nil, nil); err != nil {
		t.Fatalf("endpoint back up: %v", err)
	}
}

func TestNetworkLoss(t *testing.T) {
	n := NewNetwork(42)
	defer n.Close()
	var received atomic.Int64
	unsub, _ := n.Subscribe("sim://node/q", func([]byte, map[string]string) error {
		received.Add(1)
		return nil
	})
	defer unsub()
	n.SetLossRate(0.5)
	for i := 0; i < 200; i++ {
		n.Send("sim://node/q", []byte("x"), nil)
	}
	n.Close()
	got := received.Load()
	if got < 50 || got > 150 {
		t.Fatalf("with 50%% loss, received %d of 200", got)
	}
	_, dropped := n.Stats()
	if dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestReliableDeliversDespiteLoss(t *testing.T) {
	n := NewNetwork(7)
	defer n.Close()
	n.SetLossRate(0.4)

	recv, err := NewReliable(n, "sim://b/in", 5*time.Millisecond, 100)
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

	send, err := NewReliable(n, "sim://a/out", 5*time.Millisecond, 100)
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
		send.SendAsync("sim://b/in", []byte(fmt.Sprintf("m%d", i)), nil, func(err error) {
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
	n := NewNetwork(3)
	defer n.Close()
	n.SetDupRate(0.8)
	recv, _ := NewReliable(n, "sim://b/in", 5*time.Millisecond, 50)
	defer recv.Close()
	var count atomic.Int64
	recv.Subscribe(func([]byte, map[string]string) error {
		count.Add(1)
		return nil
	})
	send, _ := NewReliable(n, "sim://a/out", 5*time.Millisecond, 50)
	defer send.Close()
	send.Subscribe(func([]byte, map[string]string) error { return nil })
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		send.SendAsync("sim://b/in", []byte(fmt.Sprintf("%d", i)), nil, func(err error) { done <- err })
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

func TestReliableDisconnectedFailsFast(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	send, _ := NewReliable(n, "sim://a/out", 5*time.Millisecond, 5)
	defer send.Close()
	send.Subscribe(func([]byte, map[string]string) error { return nil })
	done := make(chan error, 1)
	send.SendAsync("sim://gone/q", []byte("x"), nil, func(err error) { done <- err })
	select {
	case err := <-done:
		if err != ErrDisconnected {
			t.Fatalf("want ErrDisconnected, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("no completion")
	}
}

func TestReliableRetryBudgetExhausted(t *testing.T) {
	n := NewNetwork(5)
	defer n.Close()
	n.SetLossRate(1.0) // nothing gets through
	unsub, _ := n.Subscribe("sim://b/in", func([]byte, map[string]string) error { return nil })
	defer unsub()
	send, _ := NewReliable(n, "sim://a/out", time.Millisecond, 3)
	defer send.Close()
	send.Subscribe(func([]byte, map[string]string) error { return nil })
	done := make(chan error, 1)
	send.SendAsync("sim://b/in", []byte("x"), nil, func(err error) { done <- err })
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected failure after retry budget")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no completion")
	}
}

func TestSecuredSignsAndVerifies(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	key := []byte("shared-secret")
	recvTr := NewSecured(n, key)
	got := make(chan string, 1)
	unsub, err := recvTr.Subscribe("sim://node/q", func(p []byte, _ map[string]string) error {
		got <- string(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()

	sendTr := NewSecured(n, key)
	if err := sendTr.Send("sim://node/q", []byte("signed"), nil); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "signed" {
			t.Fatal("payload mangled")
		}
	case <-time.After(time.Second):
		t.Fatal("signed message not delivered")
	}
	// Unsigned and wrongly-signed traffic is rejected before the handler.
	n.Send("sim://node/q", []byte("unsigned"), nil)
	wrong := NewSecured(n, []byte("other-key"))
	wrong.Send("sim://node/q", []byte("forged"), nil)
	select {
	case s := <-got:
		t.Fatalf("insecure message delivered: %q", s)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestHTTPTransportLoopback(t *testing.T) {
	tr := NewHTTPTransport()
	defer tr.Close()
	addr := "http://127.0.0.1:39401/queues/in"
	got := make(chan string, 1)
	unsub, err := tr.Subscribe(addr, func(p []byte, props map[string]string) error {
		got <- string(p) + "|" + props["Tag"]
		return nil
	})
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer unsub()
	if err := tr.Send(addr, []byte("<m/>"), map[string]string{"Tag": "t1"}); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "<m/>|t1" {
			t.Fatalf("got %q", s)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery over HTTP")
	}
	// Unknown path 404s → send error.
	if err := tr.Send("http://127.0.0.1:39401/queues/none", []byte("x"), nil); err == nil {
		t.Fatal("expected error for unknown endpoint")
	}
}

func TestRegistry(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	r := NewRegistry(n)
	if _, err := r.For("sim://a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.For("smtp://x"); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if SchemeOf("http://x/y") != "http" || SchemeOf("plain") != "" {
		t.Fatal("SchemeOf")
	}
}

// loopbackAddr reserves a free loopback port and returns an endpoint on it.
func loopbackAddr(t *testing.T, path string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	defer ln.Close()
	return "http://" + ln.Addr().String() + path
}

// TestHTTPPropertiesRoundTrip: property names travel over HTTP exactly as
// given — a header name would lose their case ("demaq-rm-seq") or be
// rejected outright ("demaq:rule"), and values may hold anything.
func TestHTTPPropertiesRoundTrip(t *testing.T) {
	tr := NewHTTPTransport()
	defer tr.Close()
	addr := loopbackAddr(t, "/queues/in")
	got := make(chan map[string]string, 1)
	unsub, err := tr.Subscribe(addr, func(_ []byte, props map[string]string) error {
		got <- props
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	want := map[string]string{
		"demaq:rule":    "forward",
		"demaq:created": "2026-09-26T10:00:00Z",
		"demaq-rm-seq":  "7",
		"Sender":        "http://buyer/replies",
		"mixedCase key": "a=b, c;\nd é",
	}
	if err := tr.Send(addr, []byte("<m/>"), want); err != nil {
		t.Fatalf("send with system properties: %v", err)
	}
	props := <-got
	if len(props) != len(want) {
		t.Fatalf("received properties %v, want %v", props, want)
	}
	for k, v := range want {
		if props[k] != v {
			t.Fatalf("property %q = %q, want %q (all: %v)", k, props[k], v, props)
		}
	}
	// A hand-written client may still name a property in the header itself.
	req, _ := http.NewRequest(http.MethodPost, addr, strings.NewReader("<m/>"))
	req.Header.Set("X-Demaq-Sender", "curl")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if props := <-got; props["Sender"] != "curl" {
		t.Fatalf("legacy header property: %v", props)
	}
	// A malformed property header is refused, not guessed at.
	req, _ = http.NewRequest(http.MethodPost, addr, strings.NewReader("<m/>"))
	req.Header.Set(PropertyHeader, "no-separator")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed property header: status %s, want 400", resp.Status)
	}
}

// dropFirstAck loses the first WS-RM acknowledgement it is asked to send,
// forcing one retransmit.
type dropFirstAck struct {
	Transport
	dropped atomic.Bool
}

func (d *dropFirstAck) Send(dest string, payload []byte, props map[string]string) error {
	if _, isAck := props[propAck]; isAck && d.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return d.Transport.Send(dest, payload, props)
}

// TestReliableOverHTTP: the reliability protocol's own properties survive
// the HTTP binding, so a transfer is acknowledged and a retransmit of it is
// recognized as a duplicate.
func TestReliableOverHTTP(t *testing.T) {
	tr := NewHTTPTransport()
	defer tr.Close()
	recvAddr := loopbackAddr(t, "/queues/in")
	recv, err := NewReliable(&dropFirstAck{Transport: tr}, recvAddr, 10*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	var delivered atomic.Int64
	if err := recv.Subscribe(func([]byte, map[string]string) error { delivered.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	send, err := NewReliable(tr, recvAddr+"/reply-out", 10*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	send.SendAsync(recvAddr, []byte("<m/>"), nil, func(err error) { done <- err })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("reliable send over HTTP: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("never acknowledged over HTTP")
	}
	if n := delivered.Load(); n != 1 {
		t.Fatalf("delivered %d times, want exactly once", n)
	}
	if _, retransmits, _ := send.Stats(); retransmits == 0 {
		t.Fatal("the dropped ack forced no retransmit")
	}
	if _, _, dups := recv.Stats(); dups == 0 {
		t.Fatal("the retransmit was not recognized as a duplicate")
	}
}
