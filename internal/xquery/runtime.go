// Package xquery implements static analysis, compilation and evaluation of
// the Demaq expression language parsed by internal/xpath: an XQuery 1.0
// subset with the XQuery Update Facility's pending-update-list semantics
// and the Demaq queue primitives (Sec. 3.2-3.5 of the paper).
//
// Evaluating an expression never applies side effects. Update primitives
// (do enqueue / do reset) append fully-evaluated actions to a pending
// update list which the caller (the rule engine) applies after all rules
// for a message have been evaluated — the snapshot semantics of Sec. 3.1.
package xquery

import (
	"fmt"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// Runtime supplies the environment-dependent operations of the qs:
// function library and collection(). The engine implements it against the
// message store inside the processing transaction; tests use fakes.
type Runtime interface {
	// Message returns the document node of the message being processed.
	Message() (*xmldom.Node, error)
	// Queue returns the document nodes of all messages in the named queue;
	// the empty name designates the queue of the current message.
	Queue(name string) ([]*xmldom.Node, error)
	// Property returns the value of the named property of the current
	// message.
	Property(name string) (xdm.Value, error)
	// Slice returns the documents of all messages in the slice of the
	// current message; only valid for rules attached to a slicing.
	Slice() ([]*xmldom.Node, error)
	// SliceKey returns the slice key of the current slice.
	SliceKey() (xdm.Value, error)
	// Collection returns the master-data collection with the given name.
	Collection(name string) ([]*xmldom.Node, error)
	// Now returns the current dateTime; the engine pins it per transaction
	// so fn:current-dateTime() is stable during one rule evaluation.
	Now() time.Time
}

// Update is one pending action produced by an updating expression.
type Update interface {
	updateMarker()
}

// EnqueueUpdate creates a message in a queue. Payload and property values
// are fully evaluated; applying the update performs no expression work.
type EnqueueUpdate struct {
	Queue string
	Doc   *xmldom.Node // document node
	Props map[string]xdm.Value
	// Rule names the rule whose evaluation produced the update. The
	// evaluator leaves it empty; the engine stamps it when it concatenates
	// the rules' lists, and it becomes the message's demaq:rule property.
	Rule string
}

func (*EnqueueUpdate) updateMarker() {}

// ResetUpdate resets a slice, beginning a new lifetime.
type ResetUpdate struct {
	Slicing  string    // empty: the slicing of the current rule
	Key      xdm.Value // zero Value (TypeUntyped, "") + Implicit: key of the current slice
	Implicit bool      // true when "do reset" was used without arguments
}

func (*ResetUpdate) updateMarker() {}

// UpdateList is an ordered pending update list. Per the paper (Sec. 4.4.1)
// the lists produced by the rules of a queue are concatenated into a single
// sequence and applied in order.
type UpdateList struct {
	Updates []Update
}

// Append adds an update.
func (u *UpdateList) Append(up Update) { u.Updates = append(u.Updates, up) }

// Len returns the number of pending updates.
func (u *UpdateList) Len() int { return len(u.Updates) }

// DynError is a dynamic (runtime) evaluation error with an XQuery-style
// error code.
type DynError struct {
	Code string
	Msg  string
}

func (e *DynError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Msg) }

func dynErr(code, format string, args ...any) error {
	return &DynError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// StaticError is a compile-time error.
type StaticError struct {
	Msg string
}

func (e *StaticError) Error() string { return "static error: " + e.Msg }

func staticErr(format string, args ...any) error {
	return &StaticError{Msg: fmt.Sprintf(format, args...)}
}
