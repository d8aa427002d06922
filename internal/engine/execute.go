package engine

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
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
// one transaction ID: one lock round for the slices of every member, one
// home-queue lock round, per-message rule evaluation through a single
// reused evalRuntime into per-message batch items, and one combined
// message-store transaction that marks every message processed and performs
// every enqueue and reset — one prepare/persist/publish cycle and one WAL
// commit cohort instead of len(ids). The transaction is pre-committed when
// processBatch returns, and its locks released. Between messages the worker
// polls the scheduler: if work of strictly higher priority became runnable,
// the evaluated prefix commits and the rest of the batch is requeued in
// order.
//
// A batch of one is the reference. Every member is evaluated as if the
// members before it had committed: a member whose reads meet their pending
// writes, or whose new messages an earlier reset would dismiss, ends the
// batch (batchWrites); the prefix commits and the rest is requeued in order.
//
// In a batch of one a rule error consumes the message in the same
// transaction, together with the error message naming the failing rule
// (Sec. 3.6). With a cause the message has already failed for good: nothing
// is evaluated, the message is consumed with the error message of the cause.
// In a larger batch any failure — deadlock or rule error — aborts the batch
// with no effects applied (the transaction never commits, all locks are
// released) and is reported to the caller, which bisects down to batches of
// one. It returns the prefix of ids it was responsible for (the remainder,
// if any, was requeued).
func (e *Engine) processBatch(queue string, prio int, ids []msgstore.MsgID, cause error) (attempted []msgstore.MsgID, pc precommit, err error) {
	txnID := e.txnSeq.Add(1)
	defer e.lm.ReleaseAll(txnID)

	attempted = ids
	if err := e.lockSlices(txnID, ids); err != nil {
		return attempted, pc, err
	}
	// Home-queue lock: one round for the whole batch.
	if err := e.acquire(txnID, queueLock(queue, locks.IX)); err != nil {
		return attempted, pc, err
	}

	now := time.Now().UTC()
	rt := &evalRuntime{eng: e, txnID: txnID, queue: queue, now: now}
	masks := e.probeMasks(queue, ids)
	items := make([]batchItem, 0, len(ids))
	var pending *batchWrites // nil: the graph says no member can conflict
	if e.prog.Queues[queue].Conflicts {
		pending = &batchWrites{}
	}
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
		if !ok || msg.Processed || slices.ContainsFunc(items, func(it batchItem) bool { return it.id == id }) {
			continue // consumed already, or a duplicate schedule after crash recovery
		}
		fetch := e.docFetcher(queue, id)
		var (
			it     batchItem
			failed *ruleError
		)
		if cause != nil {
			failed = &ruleError{err: cause}
			err = e.acquire(txnID, messageLock(queue, id))
		} else {
			var mask uint64
			if masks != nil {
				mask = masks[i]
			}
			it, failed, err = e.evalMessage(rt, txnID, queue, id, fetch, msg.Props, mask, pending)
		}
		if err == errNotBatchable {
			// The message conflicts with the pending writes of earlier
			// members: commit the prefix, give the rest back in order. The
			// message re-runs later with those writes committed.
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
				e.noteCommit(1)
			}
			return attempted, pc, err
		}
		items = append(items, it)
		if pending != nil {
			pending.add(it)
		}
	}
	if len(items) == 0 {
		return attempted, pc, nil
	}
	if pc, err = e.applyBatch(txnID, queue, items, now); err != nil {
		return attempted, pc, err
	}
	e.noteCommit(len(items))
	return attempted, pc, nil
}

// noteCommit counts a worker transaction that processed n messages.
func (e *Engine) noteCommit(n int) {
	e.stats.processed.Add(uint64(n))
	e.stats.commits.Add(1)
	e.stats.commitMsgs.Add(uint64(n))
}

// batchWrites are the writes the members of a batch have pending: the
// slices they reset, the slices their new messages join and the queues they
// enqueue into. A later member is evaluated as if these had committed — the
// batch-1 order — so it may join the batch unless
//
//   - R1: a slicing rule it runs reads a slice that is reset or joined
//     (every selected slicing rule counts as reading its slice);
//   - R2: a rule it runs reads a queue that is enqueued into (a read of a
//     computed queue meets any enqueue);
//   - R3: a message it enqueues joins a slice that is reset — ids are given
//     out before the resets' watermarks are taken, so the reset would
//     dismiss the message that batch-1 order puts after it;
//   - R4: it belongs to a slice that is reset, which dismisses it.
//
// R1, R2 and R4 are checked before the member evaluates anything
// (readsPending), R3 after (dismissed), before its updates join the batch.
// A batch on a queue whose batches the program's graph shows cannot meet
// them (rule.QueueNode.Conflicts) keeps no batchWrites.
type batchWrites struct {
	resets, joins map[slicing.Membership]bool
	queues        map[string]bool
}

func (w *batchWrites) add(it batchItem) {
	for _, nm := range it.enqueues {
		w.queues = setAdd(w.queues, nm.Queue)
		for _, mb := range nm.joins {
			w.joins = setAdd(w.joins, mb)
		}
	}
	for _, u := range it.resets {
		w.resets = setAdd(w.resets, slicing.Membership{Slicing: u.Slicing, Key: u.Key.StringValue()})
	}
}

func setAdd[K comparable](set map[K]bool, k K) map[K]bool {
	if set == nil {
		set = map[K]bool{}
	}
	set[k] = true
	return set
}

// readsPending reports whether a member with these memberships that runs
// these rules reads a pending write (R1, R2, R4).
func (w *batchWrites) readsPending(memberships []slicing.Membership, toRun []ruleCtx) bool {
	for _, mb := range memberships {
		if w.resets[mb] {
			return true
		}
	}
	for _, rc := range toRun {
		if rc.slicing != "" {
			if mb := (slicing.Membership{Slicing: rc.slicing, Key: rc.key}); w.resets[mb] || w.joins[mb] {
				return true
			}
		}
		for _, q := range rc.r.Reads {
			if w.queues[q] {
				return true
			}
		}
	}
	return false
}

// dismissed reports whether a pending reset would dismiss a message the
// member enqueues (R3).
func (w *batchWrites) dismissed(it batchItem) bool {
	for _, nm := range it.enqueues {
		for _, mb := range nm.joins {
			if w.resets[mb] {
				return true
			}
		}
	}
	return false
}

// lockSlices takes the exclusive locks of the slices the messages of a
// claim belong to (they are read by slice rules and advanced by resets). A
// transaction does so before it takes its home-queue lock: two messages of
// one slice are then serialized while the second holds nothing, instead of
// its queue's intention lock — which the first may need out of the way for
// a qs:queue() read, and the two would deadlock.
func (e *Engine) lockSlices(txnID uint64, ids []msgstore.MsgID) error {
	var reqs []lockReq
	for _, id := range ids {
		for _, mb := range e.slices.SlicesOf(id) {
			reqs = append(reqs, sliceLock(mb.Slicing, mb.Key, locks.X))
		}
	}
	return e.acquire(txnID, reqs...)
}

// lockReq is a logical lock as a lock site asks for it, the same under
// either granularity: a queue ('q', name), a slice ('s', slicing name and
// key), or a message ('m', id and the name of its home queue).
type lockReq struct {
	kind      byte
	name, key string
	id        msgstore.MsgID
	mode      locks.Mode
}

func queueLock(q string, m locks.Mode) lockReq        { return lockReq{'q', q, "", 0, m} }
func sliceLock(sl, k string, m locks.Mode) lockReq    { return lockReq{'s', sl, k, 0, m} }
func messageLock(q string, id msgstore.MsgID) lockReq { return lockReq{'m', q, "", id, locks.X} }

// lockName names the lock a request takes under Config.Granularity, and is
// the only place that reads it. LockSlice takes every request as asked.
// LockQueue coarsens it: a slice lock locks its whole slicing, a message
// lock its home queue exclusively (a batch holds that lock already), and an
// intention-exclusive queue lock the whole queue.
func (e *Engine) lockName(r lockReq) (string, locks.Mode) {
	coarse := e.cfg.Granularity == LockQueue
	switch {
	case r.kind == 's' && coarse:
		return locks.Resource("sl", r.name), r.mode
	case r.kind == 's':
		return locks.Resource("sl", r.name, r.key), r.mode
	case r.kind == 'm' && !coarse:
		return locks.Resource("m", strconv.FormatUint(uint64(r.id), 10)), r.mode
	case r.kind == 'm', coarse && r.mode == locks.IX:
		return locks.Resource("q", r.name), locks.X
	}
	return locks.Resource("q", r.name), r.mode
}

// acquire takes the locks of reqs for txnID in one round: each request is
// named (lockName), the requests that name one resource merge into the
// strongest of their modes, and the resources are taken in sorted order,
// one lock-manager call each — two rounds that share resources cannot take
// them in opposite orders. It stops at the first refusal, ErrDeadlock; the
// locks taken so far stay held until the caller releases the transaction.
func (e *Engine) acquire(txnID uint64, reqs ...lockReq) error {
	type lock struct {
		res  string
		mode locks.Mode
	}
	var buf [4]lock // most rounds are this small, and named on the stack
	named := buf[:0]
	for _, r := range reqs {
		res, mode := e.lockName(r)
		named = append(named, lock{res, mode})
	}
	slices.SortFunc(named, func(a, b lock) int { return strings.Compare(a.res, b.res) })
	for i, l := range named {
		if i+1 < len(named) && named[i+1].res == l.res {
			named[i+1].mode = locks.Supremum(l.mode, named[i+1].mode)
			continue
		}
		if err := e.lm.Acquire(txnID, l.res, l.mode); err != nil {
			return err
		}
	}
	return nil
}

// errNotBatchable signals that a message conflicts with the pending writes
// of the earlier members of its batch (batchWrites). The message is
// requeued, and runs later in a transaction that sees those writes.
var errNotBatchable = fmt.Errorf("engine: message conflicts with its batch")

// ruleCtx is a rule selected for a message, with the slice it runs on if it
// is a slicing rule.
type ruleCtx struct {
	r       *rule.Rule
	slicing string
	key     string
}

// evalMessage evaluates every applicable rule of one message inside txnID
// — under the locks of the message and of its slices — and turns the
// pending updates into the message's batch item. A rule failure comes back
// in failed (the per-message error path); deadlocks and system errors come
// back as err and abort the whole processing transaction. rt is reused
// across the messages of a batch; the per-message fields are reset here.
//
// A message that conflicts with the pending writes of its batch (R1, R2
// and R4 before evaluation, R3 after) is rejected with errNotBatchable; on
// the early rejection nothing is locked or evaluated.
func (e *Engine) evalMessage(rt *evalRuntime, txnID uint64, queue string, id msgstore.MsgID, fetch func() (*xmldom.Node, []string, error), props map[string]xdm.Value, probeMask uint64, pending *batchWrites) (it batchItem, failed *ruleError, err error) {
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
		return batchItem{}, nil, fetchErr
	}
	if pending != nil && pending.readsPending(memberships, toRun) {
		return batchItem{}, nil, errNotBatchable
	}
	if err := e.acquire(txnID, messageLock(queue, id)); err != nil {
		return batchItem{}, nil, err
	}

	combined := &xquery.UpdateList{}
	if len(toRun) > 0 {
		doc, _, err := fetch()
		if err != nil {
			return batchItem{}, nil, err
		}
		rt.msgID, rt.doc, rt.props = id, doc, props
	}
	for _, rc := range toRun {
		rt.curSlicing, rt.curKey = rc.slicing, rc.key
		e.stats.rulesEval.Add(1)
		_, updates, evalErr := xquery.Eval(rc.r.Body, rt, xquery.EvalOptions{ContextDoc: rt.doc})
		if evalErr != nil {
			if evalErr == locks.ErrDeadlock {
				return batchItem{}, nil, evalErr
			}
			return batchItem{}, &ruleError{rule: rc.r, err: evalErr}, nil
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
					// A bare reset, which only a slicing rule compiles
					// with, resets the rule's slice.
					u.Slicing, u.Key = rc.slicing, xdm.NewString(rc.key)
				}
			}
			combined.Append(up)
		}
	}
	if it, err = e.newItem(id, combined, props, rt.now); err != nil {
		return batchItem{}, nil, err
	}
	if pending != nil && pending.dismissed(it) {
		return batchItem{}, nil, errNotBatchable
	}
	return it, nil, nil
}

type ruleError struct {
	rule *rule.Rule
	err  error
}
