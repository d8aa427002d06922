package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing/fstest"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/qdl"
)

const (
	sinkAddr   = "sim://sink/results"
	rmNodeAddr = "sim://node/in"
	errorQueue = "benchErrors"
)

// client is how a workload's inputs reach the node. send transmits one
// input and calls acked exactly once, when the durable admission ack is
// back (HTTP 202, WS-RM ack, Enqueue return) or the transfer failed; a
// synchronous client calls it before send returns.
type client interface {
	send(payload []byte, acked func(error))
	close()
}

// workload is one set of inputs the benchmark runs. The shapes and the
// reasons for them are in README.md; the why line is what BENCHMARK.json
// carries.
type workload struct {
	name string
	why  string

	// Closed loop: clients senders, each sending its next input when the
	// previous one is acked, with at most inFlight inputs undelivered.
	// Open loop (rate > 0): a seeded Poisson schedule at rate inputs/s,
	// latency measured from the due time.
	clients, inFlight int
	rate              float64
	// think is the upper end of the uniform pause a closed-loop client makes
	// between getting a permit and sending (0 = none).
	think time.Duration

	warmup    int // inputs of the fixed-count warm-up, part of set-up
	gcEvery   int // CollectGarbage every this many completed inputs (0 = never)
	customers int // history-lookup: customers with preloaded invoices

	inQueue             string // queue the inputs enter
	inMarker, outMarker string // id markers, see idAfter
	payloadMix          string // for the result envelope

	// app returns the application source and the files it references.
	app func(httpAddr string) (string, fstest.MapFS)
	// usesHTTP and reliableSink select the transports around the node.
	usesHTTP, reliableSink bool
	// preload fills master data and history before the warm-up.
	preload func(r *run) error
	// input generates input id and the result its model predicts.
	input func(r *run, rng *rand.Rand, id int) (payload, expect string)
	// connect builds the client side.
	connect func(r *run) (client, error)
}

var workloads = []*workload{httpForward, rmPaced, procurement, historyLookup}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func wsdlFile(service, port, addr string) *fstest.MapFile {
	return &fstest.MapFile{Data: []byte(fmt.Sprintf(
		`<definitions><service name=%q><port name=%q><address location=%q/></port></service></definitions>`,
		service, port, addr))}
}

// --- http-forward and rm-paced: the §3 forward pipeline ---------------------

const jobBytes = 512

// forwardApp is one incoming gateway, one rule, one outgoing gateway. The
// rule reads two small elements, so the queue's path projection carries the
// padding through ingest as an opaque span.
func forwardApp(inAddr string, reliable bool) (string, fstest.MapFS) {
	policy := ""
	if reliable {
		policy = "\n  using WS-ReliableMessaging policy rm.xml"
	}
	src := fmt.Sprintf(`
create queue in kind incomingGateway mode persistent
  interface node.wsdl port InPort%[1]s
  errorqueue %[2]s;
create queue out kind outgoingGateway mode persistent
  interface sink.wsdl port SinkPort%[1]s
  errorqueue %[2]s;
create queue %[2]s kind basic mode persistent;
create rule fwd for in errorqueue %[2]s
  if (/job) then do enqueue <done>{/job/id}{/job/key}</done> into out;
`, policy, errorQueue)
	return src, fstest.MapFS{
		"node.wsdl": wsdlFile("Node", "InPort", inAddr),
		"sink.wsdl": wsdlFile("Sink", "SinkPort", sinkAddr),
		"rm.xml":    &fstest.MapFile{Data: []byte(`<policy/>`)},
	}
}

func jobInput(_ *run, rng *rand.Rand, id int) (string, string) {
	key := fmt.Sprintf("%016x", rng.Uint64())
	head := fmt.Sprintf("<job><id>%d</id><key>%s</key><pad>", id, key)
	const tail = "</pad></job>"
	payload := head + pad(rng, jobBytes-len(head)-len(tail)) + tail
	return payload, fmt.Sprintf("<done><id>%d</id><key>%s</key></done>", id, key)
}

// http-forward has 8 loopback connections and a uniform 0-8 ms think time
// between a client's permit and its POST. The issue asked for one
// connection per CPU and no think time. With that, admissions are paced by
// the permits the serial outgoing sender frees and lock onto its flush
// cycle: ack latency is bimodal (a commit either boards the cohort being
// assembled, about 1.6 ms, or waits out the flush in progress first, about
// 2.8 ms) with weights near one half, and its median flipped between the
// modes from run to run (52 % spread over ten seeds). The think time
// decorrelates the admissions from the sender's cycle — about 70 % then
// meet a flush in progress and the median sits well inside the upper mode —
// and the extra connections keep the sender the bottleneck. The median then
// repeats within 2 %.
const (
	httpConns = 8
	httpThink = 8 * time.Millisecond
)

var httpForward = &workload{
	name: "http-forward",
	why: "The paper's wire shape over the only real socket path: per-message HTTP framing, admission txn, " +
		"WAL flush wait and the serial outgoing sender dominate; rules and xmldom do almost nothing.",
	clients: httpConns, inFlight: 16,
	think:   httpThink,
	warmup:  300,
	inQueue: "in", inMarker: "<job><id>", outMarker: "<done><id>",
	payloadMix: "512 B <job>, one rule, 40 B <done> result; 8 connections, 0-8 ms think time, at most 16 undelivered",
	usesHTTP:   true,
	app:        func(httpAddr string) (string, fstest.MapFS) { return forwardApp(httpAddr, false) },
	input:      jobInput,
	connect: func(r *run) (client, error) {
		return &httpClient{url: r.node.httpAddr, c: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: httpConns},
		}}, nil
	},
}

type httpClient struct {
	url string
	c   *http.Client
}

func (h *httpClient) send(payload []byte, acked func(error)) {
	resp, err := h.c.Post(h.url, "application/xml", bytes.NewReader(payload))
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			err = fmt.Errorf("http admission: %s", resp.Status)
		}
	}
	acked(err)
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// freeLoopbackAddr reserves a loopback port for the node's HTTP listener.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

var rmPaced = &workload{
	name: "rm-paced",
	why: "Open loop at a third of capacity over WS-RM on both gateways: the admission and commit layers used " +
		"for latency instead of throughput, plus durable sessions; a batching or linger change shows here.",
	rate:    150,
	warmup:  150,
	inQueue: "in", inMarker: "<job><id>", outMarker: "<done><id>",
	payloadMix:   "512 B <job> at 150/s Poisson, WS-RM both ways, one client session",
	reliableSink: true,
	app:          func(string) (string, fstest.MapFS) { return forwardApp(rmNodeAddr, true) },
	input:        jobInput,
	connect: func(r *run) (client, error) {
		// The retransmit timer is far above the ack latency at this rate, so
		// a retransmit here means an ack was lost or late — it is counted.
		rel, err := gateway.NewReliable(r.node.net, "sim://client/acks", 200*time.Millisecond, 20)
		if err != nil {
			return nil, err
		}
		if err := rel.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
			return nil, err
		}
		return &rmClient{rel: rel}, nil
	},
}

type rmClient struct{ rel *gateway.Reliable }

func (c *rmClient) send(payload []byte, acked func(error)) {
	c.rel.SendAsync(rmNodeAddr, payload, nil, acked)
}

func (c *rmClient) close() { c.rel.Close() }

// enqueueClient admits inputs in process, through the call a gateway makes.
type enqueueClient struct {
	r     *run
	queue string
}

func (c *enqueueClient) send(payload []byte, acked func(error)) {
	_, err := c.r.node.engine().EnqueueWire(c.queue, payload, nil)
	acked(err)
}

func (c *enqueueClient) close() {}

func connectEnqueue(queue string) func(*run) (client, error) {
	return func(r *run) (client, error) { return &enqueueClient{r: r, queue: queue}, nil }
}

// --- procurement: the paper's case study ------------------------------------

const unpaidCustomers = 50

// procurementApp is the paper's application verbatim plus one tap rule that
// forwards each offer or refusal to the sink.
func procurementApp(string) (string, fstest.MapFS) {
	src := qdl.ProcurementApp + fmt.Sprintf(`
create queue tapOut kind outgoingGateway mode persistent
  interface sink.wsdl port SinkPort
  errorqueue %[1]s;
create queue %[1]s kind basic mode persistent;
create rule tap for customer errorqueue %[1]s
  if (/offer or /refusal) then
    do enqueue <result>{/*/requestID}<kind>{local-name(/*)}</kind></result> into tapOut;
`, errorQueue)
	return src, fstest.MapFS{"sink.wsdl": wsdlFile("Sink", "SinkPort", sinkAddr)}
}

func preloadProcurement(r *run) error {
	if err := r.node.addMasterData("crm", `<pricelist><discount>3%</discount></pricelist>`); err != nil {
		return err
	}
	invoices := make([]string, unpaidCustomers)
	for i := range invoices {
		invoices[i] = fmt.Sprintf(
			`<invoice><requestID>inv%d</requestID><customerID>u%d</customerID><amount>%d</amount></invoice>`,
			i, i, 100+i)
	}
	return r.node.enqueueAll("invoices", invoices)
}

// offerRequest draws one request from the 70/10/10/10 mix: accepted,
// restricted item (legal refuses), unpaid invoices (finance refuses),
// over capacity (supplier refuses).
func offerRequest(_ *run, rng *rand.Rand, id int) (string, string) {
	customer := fmt.Sprintf("c%d", rng.IntN(10000))
	kind := "offer"
	restricted, over := -1, false
	nItems := 1 + rng.IntN(3)
	switch p := rng.IntN(10); {
	case p == 7:
		kind, restricted = "refusal", rng.IntN(nItems)
	case p == 8:
		kind, customer = "refusal", fmt.Sprintf("u%d", rng.IntN(unpaidCustomers))
	case p == 9:
		kind, over = "refusal", true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<offerRequest><requestID>r%d</requestID><customerID>%s</customerID><items>", id, customer)
	for i := 0; i < nItems; i++ {
		qty := 1 + rng.IntN(200) // at most 3 items: the total stays below the 1000 limit
		if over && i == 0 {
			qty = 1000 + rng.IntN(9000)
		}
		yn := "no"
		if i == restricted {
			yn = "yes"
		}
		fmt.Fprintf(&b, `<item sku="sku-%d" restricted="%s"><qty>%d</qty></item>`, rng.IntN(500), yn, qty)
	}
	b.WriteString("</items></offerRequest>")
	return b.String(), fmt.Sprintf("<result><requestID>r%d</requestID><kind>%s</kind></result>", id, kind)
}

var procurement = &workload{
	name: "procurement",
	why: "The paper's case study: 9 internal messages per input, slice join, qs:queue scans, do reset, retention; " +
		"rule/xquery, slicing, txn and batch commit do the work while the gateway is idle.",
	clients: 8, inFlight: 8,
	warmup:  200,
	gcEvery: 100,
	inQueue: "crm", inMarker: "<requestID>r", outMarker: "<requestID>r",
	payloadMix: "offerRequest, 1-3 items; 70/10/10/10 accept/restricted/unpaid/over-capacity; 50 unpaid invoices",
	app:        procurementApp,
	preload:    preloadProcurement,
	input:      offerRequest,
	connect:    connectEnqueue("crm"),
}

// --- history-lookup: the read side -------------------------------------------

const (
	// historyCustomers × historyPerCustomer invoices of about 2 KB are
	// preloaded and never reset: about 40 MB, 5× the 8 MB buffer pool and 5×
	// the 4096-document cache, so a lookup's 20 documents are cold. The
	// issue asked for 100 000; set-up is repeated three times a run for a
	// steady setup_s, and that many would not fit the driver's time budget.
	historyCustomers   = 1000
	historyPerCustomer = 20
	invoiceBytes       = 2048
)

func historyApp(string) (string, fstest.MapFS) {
	src := fmt.Sprintf(`
create queue invoices kind basic mode persistent;
create queue checks kind basic mode persistent;
create queue out kind outgoingGateway mode persistent
  interface sink.wsdl port SinkPort
  errorqueue %[1]s;
create queue %[1]s kind basic mode persistent;
create property customerID as xs:string fixed
  queue invoices, checks value //customerID;
create slicing byCustomer on customerID;
create rule answer for byCustomer errorqueue %[1]s
  if (/creditCheck) then
    do enqueue <creditResult>{/creditCheck/checkID}
        <count>{count(qs:slice()[/invoice])}</count>
        <sum>{sum(qs:slice()/invoice/amount)}</sum>
      </creditResult> into out;
`, errorQueue)
	return src, fstest.MapFS{"sink.wsdl": wsdlFile("Sink", "SinkPort", sinkAddr)}
}

// invoiceAmount is the amount of a customer's k-th invoice: the model the
// sink verifies count and sum against.
func invoiceAmount(seed uint64, customer, k int) int {
	return 1 + int(rand.New(rand.NewPCG(seed^0x9e3779b97f4a7c15, uint64(customer*historyPerCustomer+k))).Uint32()%5000)
}

func preloadHistory(r *run) error {
	rng := rand.New(rand.NewPCG(r.seed, 0))
	filler := pad(rng, invoiceBytes) // one filler text; the documents differ in id, customer and amount
	docs := make([]string, 0, r.w.customers*historyPerCustomer)
	// Round-robin over the customers, so one customer's invoices lie on 20
	// different pages.
	for k := 0; k < historyPerCustomer; k++ {
		for c := 0; c < r.w.customers; c++ {
			head := fmt.Sprintf("<invoice><invoiceID>%d-%d</invoiceID><customerID>c%d</customerID><amount>%d</amount><lines>",
				c, k, c, invoiceAmount(r.seed, c, k))
			const tail = "</lines></invoice>"
			docs = append(docs, head+filler[:invoiceBytes-len(head)-len(tail)]+tail)
		}
	}
	return r.node.enqueueAll("invoices", docs)
}

func creditCheck(r *run, rng *rand.Rand, id int) (string, string) {
	c := rng.IntN(r.w.customers)
	sum := 0
	for k := 0; k < historyPerCustomer; k++ {
		sum += invoiceAmount(r.seed, c, k)
	}
	return fmt.Sprintf("<creditCheck><checkID>%d</checkID><customerID>c%d</customerID></creditCheck>", id, c),
		fmt.Sprintf("<creditResult><checkID>%d</checkID><count>%d</count><sum>%d</sum></creditResult>",
			id, historyPerCustomer, sum)
}

var historyLookup = &workload{
	name: "history-lookup",
	why: "The read side: each check joins a slice of 20 cold 2 KB invoices out of a history 5x the doc cache and " +
		"the buffer pool (index probe, page reads, decode), and restart rebuilds both indexes by scan.",
	clients: 8, inFlight: 8,
	warmup:    300,
	customers: historyCustomers,
	inQueue:   "checks", inMarker: "<checkID>", outMarker: "<checkID>",
	payloadMix: "20 000 x 2 KB <invoice> preloaded (1000 customers x 20); 80 B <creditCheck>, uniform customer",
	app:        historyApp,
	preload:    preloadHistory,
	input:      creditCheck,
	connect:    connectEnqueue("checks"),
}

// enqueueAll admits documents through the engine's own enqueue call from
// enough goroutines for group commit to share the modelled flushes, then
// waits until the node has processed them.
func (n *node) enqueueAll(queue string, docs []string) error {
	const loaders = 64
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan string)
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				if _, err := n.engine().EnqueueWire(queue, []byte(d), nil); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, d := range docs {
		next <- d
	}
	close(next)
	wg.Wait()
	if first != nil {
		return fmt.Errorf("preload %s: %w", queue, first)
	}
	if !n.engine().Drain(60 * time.Second) {
		return fmt.Errorf("preload %s: node did not drain", queue)
	}
	return nil
}
