package engine

import (
	"fmt"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/slicing"
	locks "demaq/internal/txn"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// evalRuntime implements xquery.Runtime against the engine inside one
// message-processing transaction. Reads acquire the logical locks that make
// concurrent processing serializable (Sec. 4.3).
type evalRuntime struct {
	eng   *Engine
	txnID uint64
	msgID msgstore.MsgID
	doc   *xmldom.Node
	queue string
	props map[string]xdm.Value
	now   time.Time

	curSlicing string
	curKey     string
	// sliceDocs holds the slices the transaction has read (see Slice).
	sliceDocs map[slicing.Membership][]*xmldom.Node
}

func (rt *evalRuntime) Message() (*xmldom.Node, error) { return rt.doc, nil }

func (rt *evalRuntime) Queue(name string) ([]*xmldom.Node, error) {
	if name == "" {
		name = rt.queue
	}
	// Whole-queue read: shared lock at queue granularity.
	if err := rt.eng.acquire(rt.txnID, queueLock(name, locks.S)); err != nil {
		return nil, err
	}
	docs, err := rt.eng.ms.QueueDocs(name)
	rt.eng.stats.queueScanned.Add(1)
	rt.eng.stats.queueScannedDocs.Add(uint64(len(docs)))
	return docs, err
}

// QueueProbe implements xquery.QueueProber: the messages of the queue
// posted in the property index under (prop, value) or under prop's
// multi-valued marker, and every message below the probe floor. It takes
// the shared queue lock of a whole-queue read, so that it conflicts with
// the same writers.
func (rt *evalRuntime) QueueProbe(name, prop, value string) ([]*xmldom.Node, bool, error) {
	ms := rt.eng.ms
	if !ms.PropertyIndexEnabled() {
		return nil, false, nil
	}
	if name == "" {
		name = rt.queue
	}
	if err := rt.eng.acquire(rt.txnID, queueLock(name, locks.S)); err != nil {
		return nil, false, err
	}
	floor := rt.eng.probeFloor
	ids := ms.PropertyIDsRange(prop, value, floor, ^msgstore.MsgID(0), nil)
	ids = ms.PropertyIDsRange(property.MultiValued(prop), "true", floor, ^msgstore.MsgID(0), ids)
	docs, err := ms.QueueDocsAmong(name, ids, floor)
	rt.eng.stats.queueProbed.Add(1)
	rt.eng.stats.queueProbedDocs.Add(uint64(len(docs)))
	return docs, true, err
}

func (rt *evalRuntime) Property(name string) (xdm.Value, error) {
	if v, ok := rt.props[name]; ok {
		return v, nil
	}
	return xdm.Value{}, fmt.Errorf("message has no property %q", name)
}

// Slice and SliceKey serve slicing rules only: no other body compiles with
// qs:slice() or qs:slicekey().
//
// A transaction reads each slice once and answers every later qs:slice()
// of it from that read. The slice cannot change under it: lockSlices holds
// the slices of the batch's messages exclusively until the transaction
// ends, and a member whose rules read a slice the batch's pending writes
// touch ends the batch (R1, R4 in batchWrites).
func (rt *evalRuntime) Slice() ([]*xmldom.Node, error) {
	mb := slicing.Membership{Slicing: rt.curSlicing, Key: rt.curKey}
	if docs, ok := rt.sliceDocs[mb]; ok {
		return docs, nil
	}
	if err := rt.eng.acquire(rt.txnID, sliceLock(mb.Slicing, mb.Key, locks.S)); err != nil {
		return nil, err
	}
	ids := rt.eng.slices.SliceMembers(mb.Slicing, mb.Key)
	docs := make([]*xmldom.Node, 0, len(ids))
	for _, id := range ids {
		d, err := rt.eng.ms.Doc(id)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	rt.eng.stats.sliceReads.Add(1)
	rt.eng.stats.sliceDocsRead.Add(uint64(len(docs)))
	if rt.sliceDocs == nil {
		rt.sliceDocs = map[slicing.Membership][]*xmldom.Node{}
	}
	rt.sliceDocs[mb] = docs
	return docs, nil
}

func (rt *evalRuntime) SliceKey() (xdm.Value, error) {
	// The typed property value: the message joined the slice by it.
	return rt.props[rt.eng.prog.SlicingProps[rt.curSlicing]], nil
}

func (rt *evalRuntime) Collection(name string) ([]*xmldom.Node, error) {
	return rt.eng.ms.Collection(name), nil
}

func (rt *evalRuntime) Now() time.Time { return rt.now }

// batchItem carries one message's evaluation result into the combined batch
// commit: the messages it enqueues, their properties already evaluated, and
// the slices it resets.
type batchItem struct {
	id       msgstore.MsgID
	enqueues []newMessage
	resets   []*xquery.ResetUpdate
}

// newMessage is a message a batch member enqueues: the update, the
// properties the new message gets and the slices it joins.
type newMessage struct {
	*xquery.EnqueueUpdate
	props map[string]xdm.Value
	joins []slicing.Membership
}

// newItem turns the pending update list of message id into its batch item.
// The properties of each message it enqueues are evaluated here, once —
// parent are those of message id, which the new messages inherit — so that
// the slices they join are known before the item joins a batch.
func (e *Engine) newItem(id msgstore.MsgID, updates *xquery.UpdateList, parent map[string]xdm.Value, now time.Time) (batchItem, error) {
	it := batchItem{id: id}
	for _, up := range updates.Updates {
		switch u := up.(type) {
		case *xquery.EnqueueUpdate:
			system := map[string]xdm.Value{
				property.SysCreatingRule: xdm.NewString(u.Rule),
				property.SysCreated:      xdm.NewDateTime(now),
			}
			props, err := e.prog.Properties.Evaluate(u.Queue, u.Doc, u.Props, parent, system, now)
			if err != nil {
				return batchItem{}, err
			}
			it.enqueues = append(it.enqueues, newMessage{u, props, e.slices.Memberships(u.Queue, props)})
		case *xquery.ResetUpdate:
			it.resets = append(it.resets, u)
		}
	}
	return it, nil
}

// applyBatch executes the pending updates of a whole batch and marks every
// triggering message processed, in one message-store transaction. Target
// queues and slices — those reset and those the new messages join — are
// locked in one round before any effect is applied (strict 2PL: everything
// is held until the worker releases at transaction end).
//
// The transaction ends in a pre-commit: the effects are published, the
// reset watermarks move and the new messages reach their internal
// consumers before the log is flushed, so that the worker can release its
// locks and go on. The returned precommit carries what has to wait for
// durability; the worker hands it to the durability stage.
func (e *Engine) applyBatch(txnID uint64, queue string, items []batchItem, now time.Time) (precommit, error) {
	// Parked like any claim on a dead device: the log only buffers, so a
	// pre-commit would go through and the backlog would be processed into a
	// state no restart will ever see.
	if e.degraded.Load() {
		return precommit{}, ErrDegraded
	}

	// The slices the new messages join change shape when the pre-commit
	// gives the messages their ids; they are locked like the slices reset.
	var reqs []lockReq
	for _, it := range items {
		for _, nm := range it.enqueues {
			reqs = append(reqs, queueLock(nm.Queue, locks.IX))
			for _, mb := range nm.joins {
				reqs = append(reqs, sliceLock(mb.Slicing, mb.Key, locks.X))
			}
		}
		for _, u := range it.resets {
			reqs = append(reqs, sliceLock(u.Slicing, u.Key.StringValue(), locks.X))
		}
	}
	if err := e.acquire(txnID, reqs...); err != nil {
		return precommit{}, err
	}

	tx := e.ms.Begin()
	processed := make([]msgstore.MsgID, 0, len(items))
	var stagedEnqs []stagedMsg
	for _, it := range items {
		processed = append(processed, it.id)
		for _, nm := range it.enqueues {
			// Validate against the queue schema, if declared.
			if decl := e.queueDecl(nm.Queue); decl != nil && decl.Schema != "" {
				if err := e.validateSchema(decl, nm.Doc); err != nil {
					tx.Abort()
					return precommit{}, err
				}
			}
			if err := tx.Enqueue(nm.Queue, nm.Doc, nm.props, now); err != nil {
				tx.Abort()
				return precommit{}, err
			}
			stagedEnqs = append(stagedEnqs, stagedMsg{queue: nm.Queue, props: nm.props})
		}
		for _, u := range it.resets {
			tx.RecordReset(u.Slicing, u.Key.StringValue())
		}
	}
	if err := tx.MarkProcessedAll(processed); err != nil {
		tx.Abort()
		return precommit{}, err
	}
	lsn, err := e.precommitStaged(tx, stagedEnqs)
	if err != nil {
		return precommit{}, err
	}

	// Post-pre-commit, still under the locks: reset watermarks and routing.
	// The internal consumers — the rule scheduler, the echo timers — get their
	// messages at once; a message in an outgoing gateway queue waits in its
	// queue until it is released.
	e.stats.enqueued.Add(uint64(len(stagedEnqs)))
	for _, re := range tx.AppliedResets {
		e.slices.Reset(re)
		e.stats.resets.Add(1)
	}
	return e.routeStaged(lsn, stagedEnqs), nil
}
