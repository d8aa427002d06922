package engine

import (
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/rule"
	locks "demaq/internal/txn"
	"demaq/internal/vfs"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// Error handling (paper Sec. 3.6): "like all other events in the Demaq
// system, errors are represented by XML messages sent to error queues".
// The error document follows the predefined schema below; it embeds the
// triggering message so error handlers (e.g. the deadLink rule of Fig. 10)
// can compensate. Error queues are resolved rule → queue → system.

// SystemErrorQueue is the engine-declared fallback error queue. It is a
// persistent basic queue so that "eventual reaction to an error" survives
// failures, as the paper recommends.
const SystemErrorQueue = "systemErrors"

// ErrorKind classifies errors per Sec. 3.6.
type ErrorKind string

// Error kinds.
const (
	ErrorApplication ErrorKind = "application"
	ErrorMessage     ErrorKind = "message"
	ErrorNetwork     ErrorKind = "network"
	ErrorSystem      ErrorKind = "system"
)

// buildErrorDoc constructs the error message document:
//
//	<error>
//	  <kind>application</kind>
//	  <code>XPTY0004</code>
//	  <rule>checkCreditRating</rule>
//	  <queue>finance</queue>
//	  <description>...</description>
//	  <disconnectedTransport/>          (network errors only)
//	  <initialMessage> ...payload... </initialMessage>
//	</error>
func buildErrorDoc(kind ErrorKind, code, ruleName, queue, description string, initial *xmldom.Node) *xmldom.Node {
	b := xmldom.NewBuilder()
	b.StartElement(xmldom.Name{Local: "error"})
	b.Element(xmldom.Name{Local: "kind"}, string(kind))
	if code != "" {
		b.Element(xmldom.Name{Local: "code"}, code)
	}
	if ruleName != "" {
		b.Element(xmldom.Name{Local: "rule"}, ruleName)
	}
	if queue != "" {
		b.Element(xmldom.Name{Local: "queue"}, queue)
	}
	b.Element(xmldom.Name{Local: "description"}, description)
	if kind == ErrorNetwork {
		b.StartElement(xmldom.Name{Local: "disconnectedTransport"})
		b.EndElement()
	}
	if initial != nil {
		b.StartElement(xmldom.Name{Local: "initialMessage"})
		b.Subtree(initial)
		b.EndElement()
	}
	b.EndElement()
	return b.Done()
}

// classify derives the error kind and code.
func classify(err error) (ErrorKind, string) {
	switch e := err.(type) {
	case *xquery.DynError:
		return ErrorApplication, e.Code
	case *xmldom.ParseError:
		return ErrorMessage, "DQME0001"
	}
	return ErrorSystem, ""
}

// errorQueueFor resolves the error queue for a rule/queue pair.
func (e *Engine) errorQueueFor(r *rule.Rule, queue string) string {
	if r != nil && r.ErrorQueue != "" {
		return r.ErrorQueue
	}
	if decl := e.queueDecl(queue); decl != nil && decl.ErrorQueue != "" {
		return decl.ErrorQueue
	}
	if _, ok := e.ms.Queue(SystemErrorQueue); ok {
		return SystemErrorQueue
	}
	return ""
}

// errorHandlerRule is the creating-rule system property of the error
// messages the engine raises for rule and message errors.
const errorHandlerRule = "demaq:errorHandler"

func ruleNameOf(r *rule.Rule) string {
	if r == nil {
		return ""
	}
	return r.Name
}

// errorUpdate builds the error message of a failure as a pending enqueue
// into the error queue resolved for the rule/queue pair. ok is false when no
// error queue is configured: the failure is then only logged.
func (e *Engine) errorUpdate(queue string, id msgstore.MsgID, doc *xmldom.Node, r *rule.Rule, cause error) (up *xquery.EnqueueUpdate, ok bool) {
	ruleName := ruleNameOf(r)
	target := e.errorQueueFor(r, queue)
	if target == "" {
		e.log.Error("rule error with no error queue configured",
			"queue", queue, "rule", ruleName, "msg", id, "err", cause)
		return nil, false
	}
	kind, code := classify(cause)
	var initial *xmldom.Node
	if doc != nil {
		initial = doc.Root()
	}
	return &xquery.EnqueueUpdate{Queue: target, Rule: errorHandlerRule,
		Doc: buildErrorDoc(kind, code, ruleName, queue, cause.Error(), initial)}, true
}

// emitError enqueues the error message of a failure that has no message to
// consume with it (a malformed or invalid external document), in a
// transaction of its own. It does not wait for the log: the message reaches
// its consumer at pre-commit like a worker's, and the durability stage makes
// it durable — the caller, a gateway handler that may hold a reliable
// session's peer lock, answers its sender at once.
func (e *Engine) emitError(queue string, doc *xmldom.Node, cause error) {
	e.stats.errors.Add(1)
	up, ok := e.errorUpdate(queue, 0, doc, nil, cause)
	if !ok {
		return
	}
	now := time.Now().UTC()
	system := map[string]xdm.Value{
		property.SysCreatingRule: xdm.NewString(errorHandlerRule),
		property.SysCreated:      xdm.NewDateTime(now),
	}
	props, err := e.prog.Properties.Evaluate(up.Queue, up.Doc, nil, nil, system, now)
	if err != nil {
		e.log.Error("error-message property evaluation failed", "err", err)
		props = e.prog.Properties.Unevaluated(up.Queue, system)
	}
	tx := e.ms.Begin()
	if err := tx.Enqueue(up.Queue, up.Doc, props, now); err != nil {
		tx.Abort()
		e.log.Error("error enqueue failed", "target", up.Queue, "err", err)
		return
	}
	pc, err := e.precommitExternal(tx, []stagedMsg{{queue: up.Queue, props: props}})
	if err != nil {
		e.noteStorageError(err)
		e.log.Error("error enqueue commit failed", "target", up.Queue, "err", err)
		return
	}
	e.dur.add(pc, 0)
	e.log.Warn("error routed to error queue", "queue", queue, "target", up.Queue, "err", cause)
}

// applyError consumes, inside txnID, a message whose processing failed for
// good: it is marked processed — exactly once (Sec. 3.6) — and its error
// message is enqueued in the same transaction, so no crash leaves the one
// without the other. doc is the complete document of the message (never a
// projected view: the error message embeds it), r the failing rule, if one
// is to blame.
func (e *Engine) applyError(txnID uint64, queue string, id msgstore.MsgID, doc *xmldom.Node, r *rule.Rule, cause error, now time.Time) (precommit, error) {
	updates := &xquery.UpdateList{}
	up, routed := e.errorUpdate(queue, id, doc, r, cause)
	if routed {
		updates.Append(up)
	}
	pc, err := e.applyBatch(txnID, queue, []batchItem{{id: id, updates: updates}}, now)
	if err != nil && routed && !e.retryable(err) {
		// The error message itself is not acceptable to its queue: consume
		// the message without it rather than never.
		e.log.Error("error enqueue failed", "target", up.Queue, "err", err)
		routed = false
		pc, err = e.applyBatch(txnID, queue, []batchItem{{id: id, updates: &xquery.UpdateList{}}}, now)
	}
	if err != nil {
		return pc, err
	}
	e.stats.errors.Add(1)
	if routed {
		e.log.Warn("error routed to error queue",
			"queue", queue, "rule", ruleNameOf(r), "target", up.Queue, "err", cause)
	}
	return pc, nil
}

// retryable reports whether a failed processing attempt says nothing about
// the message: a deadlock victim, or a storage failure.
func (e *Engine) retryable(err error) bool {
	return err == locks.ErrDeadlock || vfs.IsPermanent(err) || e.degraded.Load()
}

// handleRuleError consumes a message that an engine service — not a rule
// worker — found unprocessable, the way a worker consumes a failed message,
// and waits until that is durable.
func (e *Engine) handleRuleError(queue string, id msgstore.MsgID, cause error) {
	pc, err := e.processAlone(queue, id, cause)
	if err != nil {
		e.noteStorageError(err)
		e.log.Error("failed to consume message after error", "id", id, "err", err)
		return
	}
	e.settle(pc)
}
