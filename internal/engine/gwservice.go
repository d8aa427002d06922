package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/qdl"
	"demaq/internal/schema"
	"demaq/internal/wsdl"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// gatewayService connects gateway queues to transports (paper Sec. 2.1.2 /
// 4.2). Each outgoing gateway queue is its own backlog, consumed by a
// two-stage sender pipeline whose only memory is a cursor: the id of the
// last message it attempted (0 at start). On a nudge — settle gives one when
// a transaction that created output is durable — the transmit stage sends
// the unprocessed messages above the cursor, in queue (id) order, to the
// endpoint resolved from the queue's WSDL interface, up to the first whose
// release LSN (msgstore.Message.Release) is not durable yet; it never waits
// for the log. The consume stage marks every transfer completed so far
// processed in one transaction — whatever accumulated while its previous
// commit was flushing, so an idle node commits batches of one and a
// backlogged one amortizes the flush (Sec. 4's set-oriented processing,
// applied to the back door). A message is marked only once its transfer
// completed (with the reliable-messaging policy: acknowledged), so in-flight
// transfers survive crashes in the persistent queue; a crash re-sends at
// most the sent-but-unmarked window of consumeBatchCap messages. Incoming
// gateway queues subscribe an endpoint and enqueue every delivery with the
// Sender system property.
//
// Network failures are not hidden (Sec. 2.1.2): a failed transfer becomes
// an <error><disconnectedTransport/> message in the error queue, which
// application rules compensate (Fig. 10's deadLink rule). It is enqueued in
// the transaction that consumes the failed message.
type gatewayService struct {
	eng *Engine

	mu           sync.Mutex
	outgoing     map[string]*outgoingGW
	incoming     map[string]*incomingGW
	incomingRels []*gateway.Reliable
	started      bool
	stopCh       chan struct{}
	unsubs       []func()
}

// msSessionStore adapts the message store's persisted session records to
// the gateway layer's SessionStore: send-sequence reservations and
// receive dedup windows live in the "sys:sessions" heap, restored at Open.
type msSessionStore struct {
	ms *msgstore.Store
}

func (s msSessionStore) SendNext(source string) uint64 {
	st, ok := s.ms.SessionSnapshot(msgstore.SessionSend, source, "")
	if !ok {
		return 0
	}
	return st.Seq
}

func (s msSessionStore) ReserveSend(source string, upTo uint64) error {
	return s.ms.PutSession(msgstore.SessionState{Kind: msgstore.SessionSend, Endpoint: source, Seq: upTo})
}

func (s msSessionStore) RecvSessions(endpoint string) []gateway.RecvSession {
	states := s.ms.RecvSessionStates(endpoint)
	out := make([]gateway.RecvSession, 0, len(states))
	for _, st := range states {
		out = append(out, gateway.RecvSession{Peer: st.Peer, High: st.Seq, Window: st.Window})
	}
	return out
}

// consumeBatchCap bounds the sent-but-unmarked window of one outgoing queue:
// the transmit stage holds a slot per transfer from before the send until
// the consume commit, so a crash re-sends at most this many messages (plain
// transports: duplicates at the receiver; WS-RM: suppressed, the durable
// message ID is the wire sequence number).
const consumeBatchCap = 64

type outgoingGW struct {
	decl     *qdl.QueueDecl
	dest     string
	element  string
	reliable *gateway.Reliable
	tr       gateway.Transport

	wake  chan struct{} // capacity 1: a nudge, there may be more to send
	slots chan struct{} // semaphore: one slot per message being attempted or sent-but-unmarked
	done  chan transfer // completed transfers; never blocks, a sender holds a slot

	// cursor is the id of the last message the transmit stage attempted —
	// sent, or skipped as unsendable. Written by the transmit stage only.
	cursor atomic.Uint64
}

// transfer is one completed send on its way to the consume stage.
type transfer struct {
	id  msgstore.MsgID
	doc *xmldom.Node // the payload, for the error message of a failed transfer
	err error
}

type incomingGW struct {
	decl *qdl.QueueDecl
	addr string
}

func newGatewayService(e *Engine) *gatewayService {
	return &gatewayService{
		eng:      e,
		outgoing: map[string]*outgoingGW{},
		incoming: map[string]*incomingGW{},
		stopCh:   make(chan struct{}),
	}
}

// resolve reads the queue's WSDL interface and returns its port.
func (g *gatewayService) resolve(decl *qdl.QueueDecl) (*wsdl.Port, error) {
	if decl.Interface == "" {
		return nil, fmt.Errorf("engine: gateway queue %q has no interface", decl.Name)
	}
	data, err := fs.ReadFile(g.eng.cfg.Resources, decl.Interface)
	if err != nil {
		return nil, fmt.Errorf("engine: gateway %q: %w", decl.Name, err)
	}
	def, err := wsdl.Parse(data)
	if err != nil {
		return nil, err
	}
	return def.Port(decl.Port)
}

// transportFor builds the (possibly policy-wrapped) transport for a
// declaration.
func (g *gatewayService) transportFor(decl *qdl.QueueDecl, addr string) (gateway.Transport, *qdl.Policy, error) {
	base, err := g.eng.cfg.Transports.For(addr)
	if err != nil {
		return nil, nil, err
	}
	var reliablePolicy *qdl.Policy
	tr := base
	for i := range decl.Policies {
		pol := &decl.Policies[i]
		switch pol.Name {
		case "WS-ReliableMessaging":
			reliablePolicy = pol
		case "WS-Security":
			key, err := fs.ReadFile(g.eng.cfg.Resources, pol.File)
			if err != nil {
				return nil, nil, fmt.Errorf("engine: gateway %q: security policy: %w", decl.Name, err)
			}
			tr = gateway.NewSecured(tr, []byte(strings.TrimSpace(string(key))))
		default:
			return nil, nil, fmt.Errorf("engine: gateway %q: unknown policy %q", decl.Name, pol.Name)
		}
	}
	return tr, reliablePolicy, nil
}

func (g *gatewayService) declareOutgoing(decl *qdl.QueueDecl) {
	port, err := g.resolve(decl)
	if err != nil {
		g.eng.log.Error("outgoing gateway disabled", "queue", decl.Name, "err", err)
		return
	}
	tr, reliablePol, err := g.transportFor(decl, port.Address)
	if err != nil {
		g.eng.log.Error("outgoing gateway disabled", "queue", decl.Name, "err", err)
		return
	}
	gw := &outgoingGW{decl: decl, dest: port.Address, element: port.Element, tr: tr,
		wake:  make(chan struct{}, 1),
		slots: make(chan struct{}, consumeBatchCap),
		done:  make(chan transfer, consumeBatchCap)}
	gw.wake <- struct{}{} // whatever the queue holds from before the start
	if reliablePol != nil {
		// The ack endpoint is a path below the destination, not a fragment
		// of it: a URL fragment never reaches an HTTP server.
		source := port.Address + "/reply-" + decl.Name
		rel, err := gateway.NewReliable(tr, source, 25*time.Millisecond, 40)
		if err != nil {
			g.eng.log.Error("outgoing gateway disabled", "queue", decl.Name, "err", err)
			return
		}
		// Subscribe only to receive acknowledgements.
		if err := rel.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
			g.eng.log.Error("outgoing gateway ack endpoint failed", "queue", decl.Name, "err", err)
			return
		}
		gw.reliable = rel
	}
	g.mu.Lock()
	g.outgoing[decl.Name] = gw
	g.mu.Unlock()
}

func (g *gatewayService) declareIncoming(decl *qdl.QueueDecl) {
	port, err := g.resolve(decl)
	if err != nil {
		g.eng.log.Error("incoming gateway disabled", "queue", decl.Name, "err", err)
		return
	}
	g.mu.Lock()
	g.incoming[decl.Name] = &incomingGW{decl: decl, addr: port.Address}
	g.mu.Unlock()
}

// start subscribes incoming endpoints and launches outgoing senders.
func (g *gatewayService) start() {
	g.mu.Lock()
	if g.started {
		g.mu.Unlock()
		return
	}
	g.started = true
	incoming := make([]*incomingGW, 0, len(g.incoming))
	for _, in := range g.incoming {
		incoming = append(incoming, in)
	}
	outgoing := make([]*outgoingGW, 0, len(g.outgoing))
	for _, out := range g.outgoing {
		outgoing = append(outgoing, out)
	}
	g.mu.Unlock()

	for _, in := range incoming {
		in := in
		tr, _, err := g.transportFor(in.decl, in.addr)
		if err != nil {
			g.eng.log.Error("incoming gateway failed", "queue", in.decl.Name, "err", err)
			continue
		}
		// Incoming reliable endpoints ack and deduplicate.
		reliable := false
		for _, pol := range in.decl.Policies {
			if pol.Name == "WS-ReliableMessaging" {
				reliable = true
			}
		}
		if reliable {
			rel, err := gateway.NewReliableOptions(tr, in.addr, gateway.ReliableOptions{
				RetryInterval: 25 * time.Millisecond,
				MaxRetries:    40,
				Session:       msSessionStore{ms: g.eng.ms},
			})
			if err == nil {
				// The handler stages the post-admit dedup snapshot into the
				// enqueue transaction: the transfer and the window update that
				// suppresses its retransmits commit atomically. Its first
				// phase ends at the pre-commit, under the peer's admit lock;
				// the wait for the log, and then the ack, come after it.
				addr := in.addr
				err = rel.SubscribeStaged(func(payload []byte, props map[string]string, rs gateway.RecvSession) (func() error, error) {
					var sess *msgstore.SessionState
					if rs.Peer != "" {
						sess = &msgstore.SessionState{
							Kind: msgstore.SessionRecv, Endpoint: addr,
							Peer: rs.Peer, Seq: rs.High, Window: rs.Window,
						}
					}
					return g.deliver(in.decl.Name, payload, props, sess)
				})
			}
			if err != nil {
				g.eng.log.Error("incoming gateway failed", "queue", in.decl.Name, "err", err)
				continue
			}
			g.mu.Lock()
			g.incomingRels = append(g.incomingRels, rel)
			g.mu.Unlock()
			continue
		}
		handler := func(payload []byte, props map[string]string) error {
			durable, err := g.deliver(in.decl.Name, payload, props, nil)
			if err != nil {
				return err
			}
			return durable()
		}
		unsub, err := tr.Subscribe(in.addr, handler)
		if err != nil {
			g.eng.log.Error("incoming gateway failed", "queue", in.decl.Name, "err", err)
			continue
		}
		g.mu.Lock()
		g.unsubs = append(g.unsubs, unsub)
		g.mu.Unlock()
	}

	for _, out := range outgoing {
		out := out
		g.eng.wg.Add(2)
		go g.transmitLoop(out)
		go g.consumeLoop(out)
	}
}

// stopIncoming unsubscribes every incoming endpoint — reliable and plain —
// so no new transfer is admitted (or acknowledged) once shutdown begins.
// Idempotent; Shutdown calls it before draining, stop calls it again.
func (g *gatewayService) stopIncoming() {
	g.mu.Lock()
	rels := g.incomingRels
	g.incomingRels = nil
	unsubs := g.unsubs
	g.unsubs = nil
	g.mu.Unlock()
	for _, r := range rels {
		r.Close()
	}
	for _, u := range unsubs {
		u()
	}
}

func (g *gatewayService) stop() {
	g.mu.Lock()
	if !g.started {
		g.mu.Unlock()
		return
	}
	g.started = false
	g.mu.Unlock()
	g.stopIncoming()
	// Stop the senders before failing their pending reliable sends: a send
	// cut short by the shutdown is not a network failure.
	close(g.stopCh)
	g.mu.Lock()
	for _, out := range g.outgoing {
		if out.reliable != nil {
			out.reliable.Close()
		}
	}
	g.mu.Unlock()
}

// nudge wakes the outgoing senders: there may be newly released messages
// above their cursors. A sender that is busy finds the nudge when it is done.
func (g *gatewayService) nudge() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, gw := range g.outgoing {
		select {
		case gw.wake <- struct{}{}:
		default:
		}
	}
}

// idle reports whether no outgoing sender holds a slot and none has a
// released message above its cursor. The queue is read before the slots:
// a message it no longer lists as unprocessed has had its consume commit
// published, and the slot is held until that commit is durable.
func (g *gatewayService) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	ms := g.eng.ms
	for _, gw := range g.outgoing {
		next := ms.UnprocessedAfter(gw.decl.Name, msgstore.MsgID(gw.cursor.Load()), 1, nil)
		if (len(next) > 0 && next[0].Release <= ms.Durable()) || len(gw.slots) > 0 {
			return false
		}
	}
	return true
}

func (g *gatewayService) stopped() bool {
	select {
	case <-g.stopCh:
		return true
	default:
		return false
	}
}

// transmitLoop is the first stage of an outgoing queue's sender: on every
// nudge it attempts what the queue holds above the cursor, one message after
// the other, until it meets one that is not released yet — per-queue wire
// order is id order, and a WS-RM queue has one unacknowledged transfer in
// flight — and hands each completed transfer to the consume stage without
// waiting for it. A read takes at most consumeBatchCap messages: no more can
// be in flight. Closing done on the way out lets the consume stage commit
// what was sent before it exits.
func (g *gatewayService) transmitLoop(gw *outgoingGW) {
	defer g.eng.wg.Done()
	defer close(gw.done)
	ms := g.eng.ms
	var buf []msgstore.Message
	for {
		select {
		case <-g.stopCh:
			return
		case <-gw.wake:
		}
	read:
		for {
			buf = ms.UnprocessedAfter(gw.decl.Name, msgstore.MsgID(gw.cursor.Load()), consumeBatchCap, buf[:0])
			durable := ms.Durable()
			for _, m := range buf {
				if m.Release > durable || g.stopped() {
					break read
				}
				select {
				case gw.slots <- struct{}{}:
				case <-g.stopCh:
					return
				}
				if t, ok := g.transmit(gw, m); ok {
					gw.done <- t
				} else {
					<-gw.slots
				}
				gw.cursor.Store(uint64(m.ID))
			}
			if len(buf) < consumeBatchCap {
				break
			}
		}
	}
}

// transmit sends one message and returns the completed transfer. It reports
// false when there is nothing to consume: the message was rejected before
// the send, or the engine stopped (the message then stays unprocessed for
// the next start).
func (g *gatewayService) transmit(gw *outgoingGW, msg msgstore.Message) (transfer, bool) {
	e := g.eng
	doc, err := e.ms.Doc(msg.ID)
	if err != nil {
		e.log.Error("gateway payload load failed", "id", msg.ID, "err", err)
		return transfer{}, false
	}
	if gw.element != "" && doc.Root() != nil && doc.Root().Name.Local != gw.element {
		e.handleRuleError(gw.decl.Name, msg.ID,
			fmt.Errorf("payload element <%s> does not match interface element <%s>", doc.Root().Name.Local, gw.element))
		return transfer{}, false
	}
	// Outgoing messages cross the text/binary boundary here: payloads are
	// stored as binary trees and lazily re-serialized to wire XML.
	payload := xmldom.AppendSerialize(nil, doc)
	props := map[string]string{}
	for k, v := range msg.Props {
		props[k] = v.StringValue()
	}
	if gw.reliable != nil {
		// The durable message ID is the reliable sequence number: a
		// retransmit after a crash-restart reuses the pre-crash number, so
		// the receiver's dedup window suppresses the one duplicate a
		// restored send counter alone could not.
		acked := make(chan error, 1)
		gw.reliable.SendAsyncSeq(gw.dest, uint64(msg.ID), payload, props, func(err error) { acked <- err })
		err = <-acked
	} else {
		err = gw.tr.Send(gw.dest, payload, props)
	}
	if err != nil && g.stopped() {
		// Stopping fails the pending reliable sends; that is not a network
		// failure the application should see.
		return transfer{}, false
	}
	e.stats.gatewaySent.Add(1)
	return transfer{id: msg.ID, doc: doc, err: err}, true
}

// consumeLoop is the second stage: it takes every transfer completed so far
// — what accumulated while the previous commit was flushing — and consumes
// the lot in one transaction. A failed commit halts the queue's sender until
// the next start, like a worker parks its claim on a dead device: the slots
// of the unmarked transfers are never released, so the transmit stage stops
// within the window instead of piling up duplicates for the restart.
func (g *gatewayService) consumeLoop(gw *outgoingGW) {
	defer g.eng.wg.Done()
	commitBatches(gw.done, func(batch []transfer) bool {
		if !g.consume(gw, batch) {
			return false
		}
		// Only now are the messages done with: Drain must not see an idle
		// sender before the error messages have reached their consumers.
		for range batch {
			<-gw.slots
		}
		return true
	})
}

// consume marks a batch of completed transfers processed in one transaction.
// A network failure surfaces as an application-visible error message
// (Sec. 3.6) enqueued in that same transaction: the failed message is never
// consumed without its error, whichever side of the commit a crash lands on.
// It reports whether the commit succeeded.
func (g *gatewayService) consume(gw *outgoingGW, batch []transfer) bool {
	e := g.eng
	now := time.Now().UTC()
	tx := e.ms.Begin()
	ids := make([]msgstore.MsgID, len(batch))
	var errMsgs []stagedMsg
	var failed uint64
	for i, t := range batch {
		ids[i] = t.id
		if t.err == nil {
			continue
		}
		failed++
		if se, ok := e.stageNetworkError(tx, gw.decl.Name, t.doc, t.err, now); ok {
			errMsgs = append(errMsgs, se)
		}
	}
	tx.MarkProcessedAll(ids)
	if err := e.commitExternal(tx, errMsgs...); err != nil {
		// The messages stay unprocessed and are sent again on the next start.
		e.noteStorageError(err)
		e.log.Error("gateway consume failed; outgoing queue halted until restart",
			"queue", gw.decl.Name, "messages", len(ids), "err", err)
		return false
	}
	e.stats.gatewayConsumeCommits.Add(1)
	e.stats.processed.Add(uint64(len(ids)))
	e.stats.errors.Add(failed)
	e.stats.gatewaySendErrors.Add(failed)
	return true
}

// stageNetworkError stages the <disconnectedTransport/> error message of a
// failed transfer into tx.
func (e *Engine) stageNetworkError(tx *msgstore.Txn, queue string, doc *xmldom.Node, cause error, now time.Time) (stagedMsg, bool) {
	target := e.errorQueueFor(nil, queue)
	if target == "" {
		e.log.Error("network error with no error queue", "queue", queue, "err", cause)
		return stagedMsg{}, false
	}
	var initial *xmldom.Node
	if doc != nil {
		initial = doc.Root()
	}
	errDoc := buildErrorDoc(ErrorNetwork, "DQNET0001", "", queue, cause.Error(), initial)
	props := map[string]xdm.Value{
		property.SysCreatingRule: xdm.NewString("demaq:gateway"),
		property.SysCreated:      xdm.NewDateTime(now),
	}
	if pv, err := e.prog.Properties.Evaluate(target, errDoc, nil, nil, props, now); err == nil {
		props = pv
	} else {
		props = e.prog.Properties.Unevaluated(target, props)
	}
	if err := tx.Enqueue(target, errDoc, props, now); err != nil {
		e.log.Error("network error enqueue failed", "err", err)
		return stagedMsg{}, false
	}
	return stagedMsg{queue: target, props: props}, true
}

// deliver admits an external message arriving at an incoming gateway,
// validating against the queue schema and recording transport metadata as
// system properties (Sec. 2.2 "System"). A non-nil sess is the reliable
// receive-session snapshot persisted atomically with the enqueue. When
// deliver returns, the message is pre-committed and scheduled; the returned
// durable waits for the log, and only after it has returned nil may the
// transport acknowledge the delivery.
func (g *gatewayService) deliver(queue string, payload []byte, props map[string]string, sess *msgstore.SessionState) (durable func() error, err error) {
	e := g.eng
	explicit := map[string]xdm.Value{}
	if s := props["Sender"]; s != "" {
		explicit[property.SysSender] = xdm.NewString(s)
	}
	if c := props["Connection"]; c != "" {
		explicit[property.SysConnection] = xdm.NewString(c)
	}
	var a admission
	if decl := e.queueDecl(queue); decl != nil && decl.Schema != "" {
		// Schema queues take the tree path: validation walks the whole
		// document and the error message embeds it.
		doc, err := xmldom.Parse(payload)
		if err != nil {
			// Message-related error (Sec. 3.6): a malformed external document.
			e.emitError(queue, nil, err)
			return nil, err
		}
		if a, err = e.enqueueDoc(queue, doc, explicit, sess); err != nil {
			// enqueueDoc validates: an invalid document is a message error too.
			var verr *schema.ValidationError
			if errors.As(err, &verr) {
				e.emitError(queue, doc, err)
			}
			return nil, err
		}
	} else if a, err = e.enqueueWire(queue, payload, explicit, sess); err != nil {
		// Streaming ingest went straight from the wire buffer (enqueueWire
		// copies what it keeps, so the transport may recycle payload
		// afterwards). Distinguish a malformed document (an
		// application-visible error message, Sec. 3.6) from internal enqueue
		// failures.
		var perr *xmldom.ParseError
		if errors.As(err, &perr) {
			e.emitError(queue, nil, err)
		}
		return nil, err
	}
	return func() error {
		_, err := e.admitted(a, nil)
		return err
	}, nil
}
