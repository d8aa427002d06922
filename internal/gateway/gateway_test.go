package gateway

import (
	"net"
	"net/http"
	"strings"
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

func TestNetworkUnknownEndpoint(t *testing.T) {
	n := NewNetwork(1)
	defer n.Close()
	if err := n.Send("sim://nowhere/q", nil, nil); err != ErrDisconnected {
		t.Fatalf("unknown endpoint: %v", err)
	}
	unsub, _ := n.Subscribe("sim://node/q", func([]byte, map[string]string) error { return nil })
	if err := n.Send("sim://node/q", nil, nil); err != nil {
		t.Fatalf("subscribed endpoint: %v", err)
	}
	unsub()
	if err := n.Send("sim://node/q", nil, nil); err != ErrDisconnected {
		t.Fatalf("unsubscribed endpoint: %v", err)
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
