package engine

import (
	"fmt"
	"io/fs"
	"strings"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/schema"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// ErrDegraded is returned by the ingest APIs while the engine is in
// degraded read-only mode after a permanent storage failure. It wraps
// gateway.ErrUnavailable, so transports shed the load (HTTP: 503 with
// Retry-After) instead of surfacing it as a message fault.
var ErrDegraded = fmt.Errorf("engine: degraded read-only mode after storage failure: %w", gateway.ErrUnavailable)

// ErrShutdown is returned by the ingest APIs once Shutdown has begun. It
// wraps gateway.ErrUnavailable (HTTP: 503) — from a sender's point of view
// a node draining for shutdown is about to be gone.
var ErrShutdown = fmt.Errorf("engine: shutting down: %w", gateway.ErrUnavailable)

// ErrOverloaded is returned by the ingest APIs when the scheduler backlog
// is at Config.MaxBacklog. It wraps gateway.ErrOverloaded (HTTP: 429 with
// Retry-After), the transient-overload verdict distinct from the degraded
// and shutting-down 503s: the node is healthy, retry the same request.
var ErrOverloaded = fmt.Errorf("engine: ingest backlog full: %w", gateway.ErrOverloaded)

// admitIngest is the admission decision at the top of every external
// enqueue, in verdict order: a degraded node refuses everything, a
// draining node refuses new work, and a healthy node sheds only when the
// backlog bound or the WAL hard budget is hit. The WAL check is the last
// line of the graceful-degradation ramp: past the soft budget commits are
// already throttled in the store; if the live log still reaches the hard
// budget, new work is refused (429, retryable) until the checkpointer
// advances the head — the WAL never grows without bound.
func (e *Engine) admitIngest() error {
	if e.degraded.Load() {
		return ErrDegraded
	}
	if e.closing.Load() {
		return ErrShutdown
	}
	if max := e.cfg.MaxBacklog; max > 0 && e.sched.Backlog() >= max {
		e.stats.ingestShed.Add(1)
		return ErrOverloaded
	}
	if hard := e.cfg.Store.Store.WALHardBudget; hard > 0 && int64(e.ms.PageStore().LiveLogBytes()) >= hard {
		e.stats.walShed.Add(1)
		return ErrOverloaded
	}
	return nil
}

// Enqueue inserts an external message into a queue (the API used by
// gateways, clients and tests). Property expressions of the target queue
// are evaluated; explicit props (e.g. the Sender system property) may be
// supplied.
func (e *Engine) Enqueue(queue string, doc *xmldom.Node, explicit map[string]xdm.Value) (msgstore.MsgID, error) {
	return e.admitted(e.enqueueDoc(queue, doc, explicit, nil))
}

// enqueueDoc is the first phase of Enqueue — everything up to the
// pre-commit, see admit — with an optional reliable-session snapshot staged
// into the same transaction: the transfer becoming durable and its
// retransmits becoming suppressible are then one atomic fact — the ack the
// gateway sends afterwards is never a lie, whichever side of the commit a
// crash lands on.
func (e *Engine) enqueueDoc(queue string, doc *xmldom.Node, explicit map[string]xdm.Value, sess *msgstore.SessionState) (admission, error) {
	if err := e.admitIngest(); err != nil {
		return admission{}, err
	}
	if _, ok := e.ms.Queue(queue); !ok {
		return admission{}, fmt.Errorf("engine: unknown queue %q", queue)
	}
	if decl := e.queueDecl(queue); decl != nil && decl.Schema != "" {
		if err := e.validateSchema(decl, doc); err != nil {
			return admission{}, err
		}
	}
	now := time.Now().UTC()
	system := map[string]xdm.Value{}
	props, err := e.prog.Properties.Evaluate(queue, doc, explicit, nil, system, now)
	if err != nil {
		return admission{}, err
	}
	return e.admit(queue, props, sess, func(tx *msgstore.Txn) error {
		return tx.Enqueue(queue, doc, props, now)
	})
}

// admission is an external message that is pre-committed and scheduled, and
// not yet found durable.
type admission struct {
	id msgstore.MsgID
	pc precommit
}

// admit is the tail of every external enqueue: the message, staged by stage,
// and the session snapshot, if any, are pre-committed in a transaction of
// their own, and the message is scheduled. The caller owes the admission an
// admitted before it acknowledges the message to anyone.
func (e *Engine) admit(queue string, props map[string]xdm.Value, sess *msgstore.SessionState,
	stage func(*msgstore.Txn) error) (admission, error) {
	tx := e.ms.Begin()
	if err := stage(tx); err != nil {
		tx.Abort()
		e.noteStorageError(err)
		return admission{}, err
	}
	if sess != nil {
		tx.PutSession(*sess)
	}
	staged := []stagedMsg{{queue: queue, props: props}}
	pc, err := e.precommitExternal(tx, staged)
	if err != nil {
		e.noteStorageError(err)
		return admission{}, err
	}
	return admission{id: staged[0].id, pc: pc}, nil
}

// admitted is the second phase of an external enqueue: it waits until the
// admission is durable. Only then does the message count, and only then may
// its ack — the return to the caller, the HTTP 202, the WS-RM ack — go out.
func (e *Engine) admitted(a admission, err error) (msgstore.MsgID, error) {
	if err != nil {
		return 0, err
	}
	if err := e.settle(false, a.pc); err != nil {
		return 0, err
	}
	e.stats.enqueued.Add(1)
	return a.id, nil
}

// EnqueueWire inserts an external message arriving as wire XML. This is
// the streaming ingest path: the bytes are encoded straight into the
// binary payload format by a SAX-style pass — no intermediate DOM tree —
// and, when the queue has a static path projection, subtrees the queue's
// rules never read are carried through as opaque byte spans and skipped at
// decode time. The encoder copies everything it keeps, so the caller may
// reuse wire after the call.
//
// Queues that cannot stream — full-ingest configuration, transient mode,
// a declared schema (validation walks the whole document), echo and
// outgoing-gateway kinds — transparently fall back to parse-and-enqueue
// with identical semantics and error surface.
func (e *Engine) EnqueueWire(queue string, wire []byte, explicit map[string]xdm.Value) (msgstore.MsgID, error) {
	return e.admitted(e.enqueueWire(queue, wire, explicit, nil))
}

// enqueueWire is the first phase of EnqueueWire, with an optional
// reliable-session snapshot staged into the enqueue transaction (see
// enqueueDoc).
func (e *Engine) enqueueWire(queue string, wire []byte, explicit map[string]xdm.Value, sess *msgstore.SessionState) (admission, error) {
	if err := e.admitIngest(); err != nil {
		return admission{}, err
	}
	q, ok := e.ms.Queue(queue)
	if !ok {
		return admission{}, fmt.Errorf("engine: unknown queue %q", queue)
	}
	decl := e.queueDecl(queue)
	kind := e.queueKind(queue)
	if e.cfg.FullIngest ||
		q.Mode != msgstore.Persistent ||
		(decl != nil && decl.Schema != "") ||
		(kind != qdl.KindBasic && kind != qdl.KindIncomingGateway) {
		doc, err := xmldom.Parse(wire)
		if err != nil {
			return admission{}, err
		}
		return e.enqueueDoc(queue, doc, explicit, sess)
	}
	proj := e.projs[queue]
	enc, err := xmldom.StreamEncode(nil, wire, proj)
	if err != nil {
		return admission{}, err
	}
	// Decode the encoding we just produced: the partial (projected) tree
	// when a projection applied, the complete tree otherwise. It seeds the
	// doc cache and is sufficient for property evaluation — the projection
	// includes every path the queue's property expressions read. The
	// decoded strings alias enc, which is why enc is freshly allocated
	// here and never pooled.
	var (
		doc    *xmldom.Node
		fp     uint64
		pruned []string
	)
	if proj != nil {
		doc, fp, pruned, err = xmldom.DecodeProjectedOwned(enc)
		if err == nil && len(pruned) == 0 {
			// Nothing was actually pruned: the tree is complete, cache and
			// read it as such.
			fp = 0
		}
	} else {
		doc, err = xmldom.DecodeOwned(enc)
	}
	if err != nil {
		return admission{}, fmt.Errorf("engine: streaming ingest self-decode: %w", err)
	}
	now := time.Now().UTC()
	system := map[string]xdm.Value{}
	props, err := e.prog.Properties.Evaluate(queue, doc, explicit, nil, system, now)
	if err != nil {
		return admission{}, err
	}
	return e.admit(queue, props, sess, func(tx *msgstore.Txn) error {
		return tx.EnqueueEncoded(queue, enc, doc, fp, pruned, props, now)
	})
}

// EnqueueXML enqueues wire XML given as a string.
func (e *Engine) EnqueueXML(queue, xml string, explicit map[string]xdm.Value) (msgstore.MsgID, error) {
	return e.EnqueueWire(queue, []byte(xml), explicit)
}

// validateSchema checks a message against the queue's declared schema,
// compiling it on first use. Schemas whose declaration begins with '<' are
// inline documents; anything else is a file resolved via Config.Resources.
func (e *Engine) validateSchema(decl *qdl.QueueDecl, doc *xmldom.Node) error {
	e.mu.Lock()
	if e.schemas == nil {
		e.schemas = map[string]*schema.Schema{}
	}
	s, ok := e.schemas[decl.Name]
	e.mu.Unlock()
	if !ok {
		src := decl.Schema
		if !strings.HasPrefix(strings.TrimSpace(src), "<") {
			data, err := fs.ReadFile(e.cfg.Resources, src)
			if err != nil {
				return fmt.Errorf("engine: schema of queue %q: %w", decl.Name, err)
			}
			src = string(data)
		}
		var err error
		s, err = schema.Parse(src)
		if err != nil {
			return fmt.Errorf("engine: schema of queue %q: %w", decl.Name, err)
		}
		e.mu.Lock()
		e.schemas[decl.Name] = s
		e.mu.Unlock()
	}
	return s.Validate(doc)
}
