package engine

import (
	"errors"
	"strings"
	"testing"
	"testing/fstest"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/qdl"
	"demaq/internal/schema"
	"demaq/internal/xmldom"
)

// Two Demaq nodes connected over the simulated network: a buyer node sends
// capacity requests through an outgoing gateway; the supplier node receives
// them on an incoming gateway, processes them with a rule, and replies
// through its own outgoing gateway back to the buyer (Sec. 2.1.2: "the
// distribution of applications over several nodes by replacing local queues
// with pairs of gateway queues").
const buyerApp = `
create queue work kind basic mode persistent;
create queue supplierOut kind outgoingGateway mode persistent
  interface supplier.wsdl port CapacityPort
  using WS-ReliableMessaging policy rm.xml
  errorqueue netErrors;
create queue replies kind incomingGateway mode persistent
  interface buyer.wsdl port ReplyPort
  using WS-ReliableMessaging policy rm.xml;
create queue results kind basic mode persistent;
create queue netErrors kind basic mode persistent;
create rule forward for work errorqueue netErrors
  if (//capacityRequest) then
    do enqueue <plantCapacityInfo>{//requestID} {//qty}</plantCapacityInfo>
      into supplierOut;
create rule collect for replies
  if (//capacityResult) then
    do enqueue <result>{//requestID}{//verdict}</result> into results;
`

const supplierApp = `
create queue requests kind incomingGateway mode persistent
  interface supplier.wsdl port CapacityPort
  using WS-ReliableMessaging policy rm.xml;
create queue buyerOut kind outgoingGateway mode persistent
  interface buyer.wsdl port ReplyPort
  using WS-ReliableMessaging policy rm.xml;
create rule answer for requests
  if (//plantCapacityInfo) then
    do enqueue <capacityResult>{//requestID}
      <verdict>{if (number(//qty) < 100) then "accept" else "exceeded"}</verdict>
    </capacityResult> into buyerOut;
`

// gatewayFilesOn holds the two nodes' interfaces with their addresses on the
// given transport scheme.
func gatewayFilesOn(scheme string) fstest.MapFS {
	return fstest.MapFS{
		"supplier.wsdl": wsdlFor("Supplier", "CapacityPort", scheme+"://supplier/requests"),
		"buyer.wsdl":    wsdlFor("Buyer", "ReplyPort", scheme+"://buyer/replies"),
		"rm.xml":        &fstest.MapFile{Data: []byte(`<policy/>`)},
	}
}

var gatewayFiles = gatewayFilesOn("sim")

func twoNodes(t *testing.T, tr gateway.Transport) (buyer, supplier *Engine) {
	t.Helper()
	reg := gateway.NewRegistry(tr)
	mk := func(src string) *Engine {
		app, err := qdl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Dir: t.TempDir(), Workers: 2,
			Resources:  gatewayFilesOn(tr.Scheme()),
			Transports: reg,
		}, app)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Stop() })
		return e
	}
	buyer = mk(buyerApp)
	supplier = mk(supplierApp)
	supplier.Start() // incoming endpoint must exist before the buyer sends
	buyer.Start()
	return buyer, supplier
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never satisfied")
}

func TestGatewayRoundTrip(t *testing.T) {
	net := gateway.NewNetwork(11)
	defer net.Close()
	buyer, _ := twoNodes(t, net)
	buyer.EnqueueXML("work", `<capacityRequest><requestID>g1</requestID><qty>5</qty></capacityRequest>`, nil)
	waitFor(t, 10*time.Second, func() bool {
		docs, _ := buyer.MessageStore().QueueDocs("results")
		return len(docs) == 1
	})
	docs, _ := buyer.MessageStore().QueueDocs("results")
	if childElement(docs[0].Root(), "verdict").StringValue() != "accept" {
		t.Fatalf("verdict: %s", docs[0].StringValue())
	}
	// The outgoing message was consumed after the ack.
	msgs, _ := buyer.MessageStore().Messages("supplierOut")
	if len(msgs) != 1 || !msgs[0].Processed {
		t.Fatalf("outgoing gateway queue: %+v", msgs)
	}
}

func TestGatewayReliableUnderLoss(t *testing.T) {
	net := faultinject.NewFaultNet(23)
	defer net.Close()
	net.SetDropRate(0.35)
	buyer, _ := twoNodes(t, net)
	const n = 10
	for i := 0; i < n; i++ {
		buyer.EnqueueXML("work",
			`<capacityRequest><requestID>L`+string(rune('0'+i))+`</requestID><qty>5</qty></capacityRequest>`, nil)
	}
	waitFor(t, 30*time.Second, func() bool {
		docs, _ := buyer.MessageStore().QueueDocs("results")
		return len(docs) == n
	})
	// Exactly-once to the application despite loss and retransmission.
	docs, _ := buyer.MessageStore().QueueDocs("results")
	seen := map[string]bool{}
	for _, d := range docs {
		key := childElement(d.Root(), "requestID").StringValue()
		if seen[key] {
			t.Fatalf("duplicate result %s", key)
		}
		seen[key] = true
	}
}

func TestGatewayDisconnectedProducesErrorMessage(t *testing.T) {
	net := faultinject.NewFaultNet(31)
	defer net.Close()
	buyer, _ := twoNodes(t, net)
	net.SetDown("fnet://supplier/requests", true)
	buyer.EnqueueXML("work", `<capacityRequest><requestID>d1</requestID><qty>5</qty></capacityRequest>`, nil)
	waitFor(t, 10*time.Second, func() bool {
		docs, _ := buyer.MessageStore().QueueDocs("netErrors")
		return len(docs) == 1
	})
	docs, _ := buyer.MessageStore().QueueDocs("netErrors")
	root := docs[0].Root()
	if childElement(root, "kind").StringValue() != "network" {
		t.Fatalf("error kind: %s", xmlOf(root))
	}
	if childElement(root, "disconnectedTransport") == nil {
		t.Fatal("missing disconnectedTransport marker (Fig. 10)")
	}
	if childElement(root, "initialMessage") == nil {
		t.Fatal("missing initial message")
	}
}

func xmlOf(n *docNode) string { return n.StringValue() }

// TestGatewaySchemaQueueDelivery: an incoming gateway on a schema queue
// admits a valid transfer, and refuses an invalid or malformed one with one
// error message each, the invalid one's embedding the rejected document.
func TestGatewaySchemaQueueDelivery(t *testing.T) {
	net := gateway.NewNetwork(1)
	defer net.Close()
	e := newEngine(t, `
		create queue in kind incomingGateway mode persistent
		  interface in.wsdl port InPort errorqueue errs
		  schema "<xs:schema xmlns:xs=""http://www.w3.org/2001/XMLSchema"">
		            <xs:element name=""order"">
		              <xs:complexType>
		                <xs:sequence>
		                  <xs:element name=""id"" type=""xs:integer""/>
		                </xs:sequence>
		              </xs:complexType>
		            </xs:element>
		          </xs:schema>";
		create queue errs kind basic mode persistent;
	`, func(c *Config) {
		c.Resources = fstest.MapFS{"in.wsdl": wsdlFor("In", "InPort", "sim://node/in")}
		c.Transports = gateway.NewRegistry(net)
	})
	ms := e.MessageStore()
	durable, err := e.gws.deliver("in", []byte(`<order><id>42</id></order>`), nil, nil)
	if err != nil {
		t.Fatalf("valid transfer refused: %v", err)
	}
	if err := durable(); err != nil {
		t.Fatal(err)
	}
	if in, _ := ms.Messages("in"); len(in) != 1 {
		t.Fatalf("valid transfer: in holds %d messages, want 1", len(in))
	}

	var verr *schema.ValidationError
	if _, err := e.gws.deliver("in", []byte(`<order><id>nan</id></order>`), nil, nil); !errors.As(err, &verr) {
		t.Fatalf("invalid transfer refused with %v, want a validation error", err)
	}
	var perr *xmldom.ParseError
	if _, err := e.gws.deliver("in", []byte(`<order><id>`), nil, nil); !errors.As(err, &perr) {
		t.Fatalf("malformed transfer refused with %v, want a parse error", err)
	}
	drain(t, e)
	waitFor(t, 10*time.Second, func() bool { return e.Stats().UndurableBatches == 0 })
	if in, _ := ms.Messages("in"); len(in) != 1 {
		t.Fatalf("refused transfers admitted: in holds %d messages", len(in))
	}
	errs, _ := ms.QueueDocs("errs")
	if len(errs) != 2 {
		t.Fatalf("errs holds %d messages, want one per refused transfer", len(errs))
	}
	var invalid, malformed int
	for _, d := range errs {
		root := d.Root()
		switch in := childElement(root, "initialMessage"); {
		case in != nil:
			if order := childElement(in, "order"); order == nil || order.StringValue() != "nan" {
				t.Fatalf("error message embeds %s, want the invalid order", in.StringValue())
			}
			if d := childElement(root, "description").StringValue(); !strings.Contains(d, "not a valid xs:integer") {
				t.Fatalf("error description %q does not name the violation", d)
			}
			// A schema rejection is a message error (Sec. 3.6), like a
			// malformed document, with a code of its own.
			if kind, code := childElement(root, "kind").StringValue(), childElement(root, "code"); kind != "message" || code == nil || code.StringValue() != "DQME0002" {
				t.Fatalf("invalid transfer's error message has kind %q and code %v, want message and DQME0002", kind, code)
			}
			invalid++
		case childElement(root, "kind").StringValue() == "message":
			malformed++
		default:
			t.Fatalf("unexpected error message %s", d.StringValue())
		}
	}
	if invalid != 1 || malformed != 1 {
		t.Fatalf("%d error messages embed the invalid order and %d do not, want 1 and 1", invalid, malformed)
	}
}
