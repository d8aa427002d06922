package engine

import (
	"slices"
	"sync"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	locks "demaq/internal/txn"
	"demaq/internal/xdm"
)

// The commit pipeline. Every transaction of the engine — a worker's, an
// admission's, a timer's, a sender's — ends in a pre-commit
// (msgstore.Txn.Precommit): its commit record is in the log, its effects are
// published, its locks are released, and the messages it created for internal
// consumers (the rule scheduler, the echo timers) are handed over at once. No
// one waits for the device with a lock in its hands, and no message waits for
// a flush to be worked on.
//
// That is safe because there is one log. Whoever reads pre-committed state
// commits behind it: a worker that processes an admitted message whose
// admission is not durable yet gets a higher commit LSN than the admission,
// so a crash loses a suffix of the history and never a transaction something
// durable depends on. And a log that fails to flush is dead for good (the
// failure is sticky): the engine turns degraded, applyBatch refuses further
// pre-commits with ErrDegraded, and settle performs nothing on behalf of a
// transaction it could not make durable.
//
// What may not run ahead of the disk is what leaves the node, and there are
// exactly two such things:
//
//   - the sending of a message in an outgoing gateway queue, which its sender
//     reads off the queue once the log is durable up to the message's release
//     LSN (msgstore.Message.Release); settle nudges the senders — for the
//     workers through the durability stage below, which waits for the log
//     once per group of pre-committed transactions and also completes their
//     scheduler claims (which is what Drain and Shutdown observe);
//   - the return to an external caller — the HTTP 202, the WS-RM ack, the
//     result of Enqueue/EnqueueWire — which commitExternal (or, for an
//     admission, admitted) makes after settle.
//
// So an input pays one flush before its ack and its rule chain pays one more
// before its output leaves, but the two overlap: the chain runs while the
// admission's flush is under way, and nothing external can observe a message
// whose admission — or anything else its existence depends on — is not
// durable. Who starts the flushes matters as much: the durability stage and
// the gateways' consume stages follow the log (settle) — they ride the next
// flush an admission starts and flush the log themselves only when none
// starts within a short hold — so the device is free when the next
// admissions arrive, and their cohort is not split by a stage's flush.

// precommit is a pre-committed transaction on its way to durability: a
// worker's, or one committed by commitExternal.
type precommit struct {
	lsn     uint64 // WaitDurable target (routeStaged); 0: nothing to wait for
	outputs int    // messages created in outgoing gateway queues: settle nudges their senders
	claims  int    // scheduler claims the transaction completes (workers only)
}

// stagedMsg is a message staged into a transaction, on its way to its slices
// and its consumer. Its id and release LSN are set when the transaction
// pre-commits.
type stagedMsg struct {
	id      msgstore.MsgID
	release uint64
	queue   string
	props   map[string]xdm.Value
}

// precommitStaged pre-commits tx and fills in the ids and release LSNs of
// staged, the messages it enqueues, in staging order. A failed pre-commit
// has moved a publication frontier a sender may have stopped at.
func (e *Engine) precommitStaged(tx *msgstore.Txn, staged []stagedMsg) (uint64, error) {
	msgs, lsn, err := tx.Precommit()
	if err != nil {
		e.gws.nudge()
		return 0, err
	}
	for i, m := range msgs {
		staged[i].id, staged[i].release = m.ID, m.Release
	}
	return lsn, nil
}

// undurableCap bounds how many pre-committed worker transactions may be
// waiting for the log at once; a worker that finds them all taken waits for
// the flush in progress. Deep enough that the workers never stall on a 1 ms
// device, small enough that the pre-committed window stays a few flushes.
// It is the only bound on how far the workers run ahead: transactions that
// carry messages for the outside run ahead like internal ones, and their
// messages wait for the log in the queue (TestOutputBackpressure).
const undurableCap = 64

// durabilityStage is the one goroutine per engine that turns pre-committed
// worker transactions into durable ones: it takes whatever accumulated while
// the previous flush ran and waits for the log once, for the highest LSN of
// the lot — natural group commit, as a follower of the log (settle).
type durabilityStage struct {
	eng   *Engine
	slots chan struct{}  // semaphore: one slot per un-durable transaction
	queue chan precommit // never blocks: a sender holds a slot

	mu      sync.RWMutex // held shared by add, exclusively by close
	stopped bool
}

func newDurabilityStage(e *Engine) *durabilityStage {
	return &durabilityStage{eng: e,
		slots: make(chan struct{}, undurableCap),
		queue: make(chan precommit, undurableCap)}
}

// add hands a pre-committed transaction, completing claims scheduler claims,
// to the stage. Called with no logical lock held, by the workers and by the
// engine's own error messages; those may come after the stage has stopped,
// and then settle here.
func (d *durabilityStage) add(pc precommit, claims int) {
	pc.claims = claims
	d.mu.RLock()
	defer d.mu.RUnlock()
	if pc.lsn == 0 || d.stopped {
		// Nothing was logged (a duplicate schedule, transient queues only)
		// and nothing is owed to the outside (routeStaged): there is no flush
		// to wait for. Once the stage has stopped, the caller waits itself.
		d.eng.settle(false, pc)
		return
	}
	d.slots <- struct{}{}
	d.eng.stats.pipelinedCommits.Add(1)
	d.queue <- pc
}

// close stops the stage once the workers are gone: the loop settles what is
// queued and exits.
func (d *durabilityStage) close() {
	d.mu.Lock()
	d.stopped = true
	close(d.queue)
	d.mu.Unlock()
}

// undurable is the number of transactions handed over and not yet settled.
func (d *durabilityStage) undurable() int { return len(d.slots) }

// loop runs until the stage is closed and settles what was left behind on
// the way out.
func (d *durabilityStage) loop() {
	defer d.eng.wg.Done()
	commitBatches(d.queue, func(batch []precommit) bool {
		d.eng.stats.durabilityWaits.Add(1)
		d.eng.settle(true, batch...)
		for range batch {
			<-d.slots
		}
		return true
	})
}

// commitBatches is the accumulate-and-commit loop of the pipeline stages:
// each round takes whatever accumulated on ch while the previous commit ran
// and hands the lot to commit, until ch is closed or commit reports false.
func commitBatches[T any](ch <-chan T, commit func([]T) bool) {
	batch := make([]T, 0, cap(ch))
	for first := range ch {
		batch = append(batch[:0], first)
	more:
		for {
			select {
			case v, ok := <-ch:
				if !ok {
					break more
				}
				batch = append(batch, v)
			default:
				break more
			}
		}
		if !commit(batch) {
			return
		}
	}
}

// settle waits until a group of pre-committed transactions is durable and
// then performs what they owe the outside: it nudges the outgoing gateway
// senders and completes the scheduler claims. With follow — the durability
// stage and the gateways' consume stages, which no caller waits on — it rides
// the next flush someone else starts and flushes the log itself only when
// none starts within the hold (msgstore.Store.FollowDurable); every other
// caller flushes at once. When the log fails, nothing that is not durable
// leaves the node: the engine turns degraded, the error goes back to whoever
// has a caller to refuse, and the claims are completed all the same — the
// messages count as processed in memory, and a restart re-derives what the
// durable prefix of the log does not hold from the messages it finds
// unprocessed, as after any crash — so that Shutdown can finish.
func (e *Engine) settle(follow bool, batch ...precommit) error {
	var lsn uint64
	for _, pc := range batch {
		if pc.lsn > lsn {
			lsn = pc.lsn
		}
	}
	var err error
	if follow {
		var led bool
		if led, err = e.ms.FollowDurable(lsn); led {
			e.stats.followerFlushes.Add(1)
		}
	} else {
		err = e.ms.WaitDurable(lsn)
	}
	if err != nil {
		e.noteStorageError(err)
		e.log.Error("pre-committed transactions lost: the log did not become durable",
			"transactions", len(batch), "err", err)
	}
	if err == nil && slices.ContainsFunc(batch, func(pc precommit) bool { return pc.outputs > 0 }) {
		e.gws.nudge()
	}
	for _, pc := range batch {
		if pc.claims > 0 {
			e.sched.DoneN(pc.claims)
		}
	}
	return err
}

// routeStaged hands the messages a transaction that pre-committed at lsn
// created to their internal consumers — the rule scheduler, the echo timers
// — and returns what the transaction owes the outside. A message in an
// outgoing gateway queue stays where it is, for its sender to read once its
// release LSN is durable: the transaction waits for that — its own commit
// record, or, if it logged nothing (lsn 0), the log end at its publish — and
// for its turn in the stage like any other.
func (e *Engine) routeStaged(lsn uint64, msgs []stagedMsg) precommit {
	pc := precommit{lsn: lsn}
	for _, m := range msgs {
		switch e.queueKind(m.queue) {
		case qdl.KindOutgoingGateway:
			pc.outputs++
			pc.lsn = max(pc.lsn, m.release)
		case qdl.KindEcho:
			e.timers.schedule(m.queue, m.id)
		default:
			e.sched.Add(m.queue, m.id)
		}
	}
	return pc
}

// commitExternal commits a transaction that does not run under a worker's
// locks — the echo timers' — and returns once it is durable. It is precommitExternal and settle in a row, as msgstore's Commit
// is Precommit and WaitDurable: the messages it stages reach their internal
// consumers before the wait; the outgoing gateway senders are nudged, and the
// caller returns, after it.
func (e *Engine) commitExternal(tx *msgstore.Txn, msgs ...stagedMsg) error {
	pc, err := e.precommitExternal(tx, msgs)
	if err != nil {
		return err
	}
	return e.settle(false, pc)
}

// precommitExternal pre-commits such a transaction and publishes the
// messages it stages. Like applyBatch does for rule-created messages, it
// holds the X lock of every slice a new message joins around pre-commit and
// publish (which posts it in the property index the slices are ranges of): a
// member never appears between two rules of one message's evaluation. With
// the locks released again — nothing here holds a logical lock across the
// device — the messages for internal consumers are routed, ahead of the log
// like a worker's: whatever processes them commits behind this transaction
// (the header of this file has the argument). The caller owes the returned
// precommit a settle, and may tell no one outside the node about the
// transaction before that has returned nil.
func (e *Engine) precommitExternal(tx *msgstore.Txn, msgs []stagedMsg) (precommit, error) {
	lsn, err := e.precommitLocked(tx, msgs)
	if err != nil {
		return precommit{}, err
	}
	return e.routeStaged(lsn, msgs), nil
}

// precommitLocked is the part of precommitExternal that runs under the slice
// locks.
func (e *Engine) precommitLocked(tx *msgstore.Txn, msgs []stagedMsg) (uint64, error) {
	var reqs []lockReq
	for _, m := range msgs {
		for _, mb := range e.slices.Memberships(m.queue, m.props) {
			reqs = append(reqs, sliceLock(mb.Slicing, mb.Key, locks.X))
		}
	}
	if len(reqs) > 0 {
		txnID := e.txnSeq.Add(1)
		defer e.lm.ReleaseAll(txnID)
		// Only ErrDeadlock comes back: let the other side through and start
		// over.
		for backoff := 50 * time.Microsecond; e.acquire(txnID, reqs...) != nil; {
			e.lm.ReleaseAll(txnID)
			time.Sleep(backoff)
			if backoff < 10*time.Millisecond {
				backoff *= 2
			}
		}
	}
	return e.precommitStaged(tx, msgs)
}
