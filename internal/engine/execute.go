package engine

import (
	"fmt"
	"math/rand/v2"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/rule"
	"demaq/internal/slicing"
	locks "demaq/internal/txn"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// worker is the message-processing loop: it claims same-queue batches of up
// to BatchSize messages and processes them set-oriented. A claim of one
// message is a batch of one.
func (e *Engine) worker() {
	defer e.workers.Done()
	buf := make([]msgstore.MsgID, 0, e.cfg.BatchSize)
	for {
		queue, prio, ids, ok := e.sched.ClaimBatch(e.cfg.BatchSize, buf[:0])
		if !ok {
			return
		}
		buf = ids
		e.stats.batches.Add(1)
		e.stats.batchMsgs.Add(uint64(len(ids)))
		e.runBatch(queue, prio, ids)
	}
}

// runBatch processes a claimed batch, bisecting on failure: a batch that
// deadlocks or contains a rule error is split in half and retried, so the
// failure converges onto batches of one — whose retry and error-queue
// semantics are the reference — while the healthy majority of the batch
// still commits set-oriented. Healthy members of a failing batch are
// re-evaluated once per split level; RulesEvaluated/RulesFired count
// evaluations performed, so they run higher on such workloads — exactly as
// deadlock retries already re-count.
func (e *Engine) runBatch(queue string, prio int, ids []msgstore.MsgID) {
	switch len(ids) {
	case 0:
		return
	case 1:
		pc, err := e.processAlone(queue, ids[0], nil)
		switch {
		case err == nil:
			e.dur.add(pc, 1)
		case err == locks.ErrDeadlock:
			// Retry budget exhausted: nothing is wrong with the message
			// itself, only with the timing — hand it back to the scheduler
			// instead of poisoning an error queue.
			e.stats.deadlockRequeues.Add(1)
			e.sched.RequeueFront(queue, ids)
		case e.retryable(err):
			// A permanent storage failure is a device fault, not a message
			// fault: park the message back on the scheduler (it stays
			// unprocessed and will be retried after a restart on a healthy
			// disk) and flip to degraded mode. Routing to the error queue
			// would both misattribute the failure and need the same dead
			// disk to commit.
			e.noteStorageError(err)
			e.sched.RequeueFront(queue, ids)
			time.Sleep(10 * time.Millisecond) // don't spin against a dead device
		default:
			// Not even the error path can consume it: the message stays
			// unprocessed in its queue until the next start.
			e.log.Error("failed to consume message after error", "id", ids[0], "err", err)
			e.sched.DoneN(1)
		}
		return
	}
	attempted, pc, err := e.processBatch(queue, prio, ids, nil)
	if err == nil {
		e.dur.add(pc, len(attempted))
		return
	}
	if err == locks.ErrDeadlock {
		e.stats.deadlocks.Add(1)
	}
	mid := len(attempted) / 2
	e.runBatch(queue, prio, attempted[:mid])
	e.runBatch(queue, prio, attempted[mid:])
}

// processAlone runs one message as a batch of one until it is consumed.
// Deadlocks retry with jittered exponential backoff, up to MaxRetries; any
// other failure that says something about the message is consumed on the
// next attempt, together with the error message of its cause (Sec. 3.6). A
// non-nil cause starts there. It returns the failure it gave up on: the
// deadlock that spent the budget, a storage failure, or the failure of the
// consume itself.
func (e *Engine) processAlone(queue string, id msgstore.MsgID, cause error) (precommit, error) {
	ids := []msgstore.MsgID{id}
	backoff := 50 * time.Microsecond
	for attempt := 0; ; attempt++ {
		_, pc, err := e.processBatch(queue, 0, ids, cause)
		switch {
		case err == nil:
			return pc, nil
		case err == locks.ErrDeadlock:
			e.stats.deadlocks.Add(1)
			if attempt >= e.cfg.MaxRetries {
				return pc, err
			}
			// Jittered backoff: a deterministic schedule would march the
			// colliding workers into the same conflict again.
			time.Sleep(backoff + rand.N(backoff))
			if backoff < 10*time.Millisecond {
				backoff *= 2
			}
		case e.retryable(err) || cause != nil:
			return pc, err
		default:
			cause = err
		}
	}
}

// docFetcher returns a memoized projected-document fetch for one message.
// evalMessage calls it only when dispatch actually selects a rule (or needs
// element names for a trigger), so a message every rule is dispatched away
// from never decodes its payload; the first caller pays the decode, later
// callers in the same transaction get the cached result.
func (e *Engine) docFetcher(queue string, id msgstore.MsgID) func() (*xmldom.Node, []string, error) {
	var (
		doc    *xmldom.Node
		pruned []string
		err    error
		done   bool
	)
	return func() (*xmldom.Node, []string, error) {
		if !done {
			doc, pruned, err = e.ms.DocProjected(id, e.projFP(queue))
			done = true
		}
		return doc, pruned, err
	}
}

// probeMasks resolves the queue plan's property prefilters for a whole
// claimed batch through the message store's secondary index: one (property,
// value) range scan over the batch's id window per planner probe, instead
// of per-message map checks. Bit r of masks[i] set means ids[i] provably
// satisfies every predicate of plan.Rules[r]; an unset bit falls back to
// the per-message check inside SelectIndexed (the posting may be absent
// because the property is absent, which admits the rule — or because the
// posting raced the commit publish, where propMatch stays authoritative).
// Returns nil when the plan or the store rules probing out.
func (e *Engine) probeMasks(queue string, ids []msgstore.MsgID) []uint64 {
	if len(ids) < 2 {
		return nil
	}
	plan := e.prog.QueuePlans[queue]
	if plan == nil || !plan.IndexDispatchable() || !e.ms.PropertyIndexEnabled() {
		return nil
	}
	lo, hi := ids[0], ids[0]
	pos := make(map[msgstore.MsgID]int, len(ids))
	for i, id := range ids {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
		pos[id] = i
	}
	probes := plan.IndexProbes()
	masks := make([]uint64, len(ids))
	hits := make([]int, len(ids))
	var hitBuf []msgstore.MsgID
	for i := 0; i < len(probes); {
		// Probes are grouped by rule; a multi-predicate rule needs every
		// posting list of the group to hit.
		j := i
		for j < len(probes) && probes[j].Rule == probes[i].Rule {
			j++
		}
		for k := range hits {
			hits[k] = 0
		}
		for _, pr := range probes[i:j] {
			hitBuf = e.ms.PropertyIDsRange(pr.Name, pr.Value, lo, hi, hitBuf[:0])
			for _, id := range hitBuf {
				if p, ok := pos[id]; ok {
					hits[p]++
				}
			}
		}
		bit := uint64(1) << uint(probes[i].Rule)
		for p, n := range hits {
			if n == j-i {
				masks[p] |= bit
			}
		}
		i = j
	}
	return masks
}

// processBatch runs the execution-model cycle for a same-queue batch under
// one transaction ID: one home-queue lock round, per-message rule evaluation
// through a single reused evalRuntime into per-message pending update lists,
// and one combined message-store transaction that marks every message
// processed and performs every enqueue and reset — one
// prepare/persist/publish cycle and one WAL commit cohort instead of
// len(ids). The transaction is pre-committed when processBatch returns, and
// its locks released. Between messages the worker polls the scheduler: if
// work of strictly higher priority became runnable, the evaluated prefix
// commits and the rest of the batch is requeued in order.
//
// A batch of one is the reference: a rule error consumes the message in the
// same transaction, together with the error message naming the failing rule
// (Sec. 3.6). With a cause the message has already failed for good: nothing
// is evaluated, the message is consumed with the error message of the cause.
// In a larger batch any failure — deadlock or rule error — aborts the batch
// with no effects applied (the transaction never commits, all locks are
// released) and is reported to the caller, which bisects down to batches of
// one. It returns the prefix of ids it was responsible for (the remainder,
// if any, was requeued after preemption).
func (e *Engine) processBatch(queue string, prio int, ids []msgstore.MsgID, cause error) (attempted []msgstore.MsgID, pc precommit, err error) {
	txnID := e.txnSeq.Add(1)
	defer e.lm.ReleaseAll(txnID)

	attempted = ids
	if err := e.lockSlices(txnID, e.slices.SlicesOf(ids[0])); err != nil {
		return attempted, pc, err
	}
	// Home-queue lock: one round for the whole batch.
	mode := locks.IX
	if e.cfg.Granularity == LockQueue {
		mode = locks.X
	}
	if err := e.lm.Acquire(txnID, locks.Resource("q", queue), mode); err != nil {
		return attempted, pc, err
	}

	now := time.Now().UTC()
	rt := &evalRuntime{eng: e, txnID: txnID, queue: queue, now: now}
	masks := e.probeMasks(queue, ids)
	items := make([]batchItem, 0, len(ids))
	for i, id := range ids {
		if i > 0 && e.sched.PreemptFor(prio) {
			// Higher-priority work arrived: commit what is evaluated and
			// give the rest back, preserving order.
			e.sched.RequeueFront(queue, ids[i:])
			attempted = ids[:i]
			break
		}
		msg, ok := e.ms.Get(id)
		if !ok && cause == nil {
			return attempted, pc, fmt.Errorf("engine: message %d vanished", id)
		}
		if !ok || msg.Processed {
			continue // consumed already, or a duplicate schedule after crash recovery
		}
		fetch := e.docFetcher(queue, id)
		var (
			combined *xquery.UpdateList
			shared   bool
			failed   *ruleError
		)
		if cause != nil {
			failed = &ruleError{err: cause}
			err = e.lockMessage(txnID, id, e.slices.SlicesOf(id))
		} else {
			var mask uint64
			if masks != nil {
				mask = masks[i]
			}
			combined, shared, failed, err = e.evalMessage(rt, txnID, queue, id, fetch, msg.Props, mask, len(items) > 0)
		}
		if err == errNotBatchable {
			// This message's rules read or mutate shared state and
			// updates from earlier batch members are already pending:
			// commit the prefix, give the rest back in order. The message
			// re-runs later at the head of its own transaction.
			e.sched.RequeueFront(queue, ids[i:])
			attempted = ids[:i]
			break
		}
		if err != nil {
			return attempted, pc, err
		}
		// Re-check the processed flag now that the message lock is held: the
		// pre-lock snapshot above can race a duplicate schedule of the same
		// ID. False under the lock is final — any other processor must take
		// this lock to commit the flag.
		if cur, ok := e.ms.Get(id); !ok || cur.Processed {
			continue
		}
		if failed != nil {
			if len(ids) > 1 {
				// Fail the batch so bisection isolates the message.
				return attempted, pc, failed.err
			}
			// Error path: the message still counts as processed (Sec. 3.6);
			// the error becomes a message in the appropriate error queue. It
			// embeds the original document: use the complete tree, never a
			// projected view of it. fetch is memoized — a failing rule
			// already evaluated on the document.
			doc, pruned, _ := fetch()
			if len(pruned) > 0 {
				if full, derr := e.ms.Doc(id); derr == nil {
					doc = full
				}
			}
			if pc, err = e.applyError(txnID, queue, id, doc, failed.rule, failed.err, now); err == nil {
				e.stats.processed.Add(1)
			}
			return attempted, pc, err
		}
		dup := false
		for _, it := range items {
			if it.id == id {
				dup = true // duplicate schedule landed twice in one batch
				break
			}
		}
		if dup {
			continue
		}
		items = append(items, batchItem{id: id, props: msg.Props, updates: combined})
		if shared {
			// A shared-state message rides alone (it was first, so its
			// reads were live): close the batch behind it.
			if i+1 < len(ids) {
				e.sched.RequeueFront(queue, ids[i+1:])
				attempted = ids[:i+1]
			}
			break
		}
	}
	if len(items) == 0 {
		return attempted, pc, nil
	}
	if pc, err = e.applyBatch(txnID, queue, items, now); err != nil {
		return attempted, pc, err
	}
	e.stats.processed.Add(uint64(len(items)))
	return attempted, pc, nil
}

// lockSlices takes the exclusive locks of the slices a message belongs to
// (they are read by slice rules and advanced by resets). A transaction does
// so for its first message before it takes its home-queue lock: two
// messages of one slice are then serialized while the second holds nothing,
// instead of its queue's intention lock — which the first may need out of
// the way for a qs:queue() read, and the two would deadlock.
func (e *Engine) lockSlices(txnID uint64, memberships []slicing.Membership) error {
	if e.cfg.Granularity != LockSlice {
		return nil
	}
	for _, mb := range memberships {
		if err := e.lm.Acquire(txnID, locks.Resource("sl", mb.Slicing, mb.Key), locks.X); err != nil {
			return err
		}
	}
	return nil
}

// lockMessage takes the exclusive locks of a message and of the slices it
// belongs to, under slice locking; the home-queue lock covers both under
// queue locking.
func (e *Engine) lockMessage(txnID uint64, id msgstore.MsgID, memberships []slicing.Membership) error {
	if e.cfg.Granularity != LockSlice {
		return nil
	}
	if err := e.lm.Acquire(txnID, locks.Resource("m", fmt.Sprint(id)), locks.X); err != nil {
		return err
	}
	return e.lockSlices(txnID, memberships)
}

// errNotBatchable signals that a message's applicable rules touch shared
// state and therefore may not evaluate in the middle of a batch (whose
// earlier pending updates are not visible yet). The message is requeued
// and later runs at the head of its own transaction, where reads are live.
var errNotBatchable = fmt.Errorf("engine: message not batchable mid-batch")

// evalMessage evaluates every applicable rule of one message inside txnID
// — under the locks of the message's slices — and accumulates the pending
// updates. A rule failure comes back in failed (the per-message error
// path); deadlocks and system errors come back as err and abort the whole
// processing transaction. rt is reused across the messages of a batch; the
// per-message fields are reset here.
//
// shared reports whether any applicable rule observes or mutates shared
// state (qs:slice/qs:queue reads, resets): such a message must be the only
// one in its transaction to keep every batch equivalent to batches of one.
// With noShared set, a shared message is rejected with errNotBatchable
// before anything is locked or evaluated, so a requeued message is
// immediately claimable by another worker; past that point the exclusive
// locks of the message and of its slices are acquired.
func (e *Engine) evalMessage(rt *evalRuntime, txnID uint64, queue string, id msgstore.MsgID, fetch func() (*xmldom.Node, []string, error), props map[string]xdm.Value, probeMask uint64, noShared bool) (combined *xquery.UpdateList, shared bool, failed *ruleError, err error) {
	// Element names are the dispatch key set: computed lazily, only when
	// some applicable rule actually has an element trigger — that is the
	// first point the document is needed at all; a message whose rules are
	// all dispatched away on properties is never fetched. A projected
	// document is missing the elements inside its pruned spans, so their
	// recorded names are merged back in — the prefilter must never reject
	// a rule the full document would have selected (over-approximating is
	// harmless: the rule body re-checks its condition).
	var namesMemo map[string]bool
	var fetchErr error
	elementNames := func() map[string]bool {
		if namesMemo == nil {
			doc, pruned, err := fetch()
			if err != nil {
				fetchErr = err
				return map[string]bool{}
			}
			namesMemo = rule.ElementNames(doc)
			for _, n := range pruned {
				namesMemo[n] = true
			}
		}
		return namesMemo
	}

	memberships := e.slices.SlicesOf(id)
	combined = &xquery.UpdateList{}
	type ruleCtx struct {
		r       *rule.Rule
		slicing string
		key     string
	}
	var toRun []ruleCtx
	if plan := e.prog.QueuePlans[queue]; plan != nil {
		// probeMask carries the batch index-probe results; 0 degrades
		// SelectIndexed to the plain per-message Select.
		for _, r := range plan.SelectIndexed(props, probeMask, elementNames) {
			toRun = append(toRun, ruleCtx{r: r})
		}
	}
	for _, mb := range memberships {
		if plan := e.prog.SlicePlans[mb.Slicing]; plan != nil {
			for _, r := range plan.Select(props, elementNames) {
				toRun = append(toRun, ruleCtx{r: r, slicing: mb.Slicing, key: mb.Key})
			}
		}
	}
	if fetchErr != nil {
		return nil, false, nil, fetchErr
	}
	for _, rc := range toRun {
		if rc.r.Body.SharedState() {
			shared = true
			break
		}
	}
	if shared && noShared {
		return nil, true, nil, errNotBatchable
	}
	if err := e.lockMessage(txnID, id, memberships); err != nil {
		return nil, shared, nil, err
	}

	if len(toRun) == 0 {
		return combined, shared, nil, nil
	}
	doc, _, err := fetch()
	if err != nil {
		return nil, shared, nil, err
	}
	rt.msgID, rt.doc, rt.props = id, doc, props
	for _, rc := range toRun {
		rt.curSlicing, rt.curKey = rc.slicing, rc.key
		e.stats.rulesEval.Add(1)
		_, updates, evalErr := xquery.Eval(rc.r.Body, rt, xquery.EvalOptions{ContextDoc: doc})
		if evalErr != nil {
			if evalErr == locks.ErrDeadlock {
				return nil, shared, nil, evalErr
			}
			return nil, shared, &ruleError{rule: rc.r, err: evalErr}, nil
		}
		if updates.Len() > 0 {
			e.stats.rulesFired.Add(1)
		}
		for _, up := range updates.Updates {
			switch u := up.(type) {
			case *xquery.EnqueueUpdate:
				u.Rule = rc.r.Name
			case *xquery.ResetUpdate:
				if u.Implicit {
					// Resolve the implicit reset against the rule's slice.
					if rc.slicing == "" {
						return nil, shared, &ruleError{rule: rc.r, err: fmt.Errorf("bare 'do reset' outside a slicing rule")}, nil
					}
					u.Slicing, u.Key = rc.slicing, xdm.NewString(rc.key)
				}
			}
			combined.Append(up)
		}
	}
	return combined, shared, nil, nil
}

type ruleError struct {
	rule *rule.Rule
	err  error
}
