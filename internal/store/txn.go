package store

import (
	"errors"
)

// ErrTxnDone is returned by operations on a finished transaction.
var ErrTxnDone = errors.New("store: transaction already committed or aborted")

// Txn is a storage transaction: atomic (WAL undo), durable (WAL flush at
// commit). Isolation between transactions is the responsibility of the
// logical lock manager above (internal/txn), matching the paper's model of
// message-processing transactions protected by queue/slice locks. A Txn is
// used by one goroutine at a time; distinct transactions run fully in
// parallel against the latched page store.
type Txn struct {
	s       *Store
	id      uint64
	lastLSN uint64
	began   bool // recBegin written
	done    bool

	undoRecs     []*logRecord // update records in execution order
	freeOnCommit []PageID     // overflow chains of deleted records

	// Left behind by BatchDelete, released once the commit is durable:
	// overflow chains of redo-only deleted records, and the heaps to reclaim
	// emptied pages from.
	freeAfterCommit []PageID
	reclaim         []*heapInfo
}

// Begin starts a transaction.
func (s *Store) Begin() *Txn {
	return s.beginTxn()
}

func (s *Store) beginTxn() *Txn {
	return &Txn{s: s, id: s.nextTxn.Add(1) - 1}
}

func (t *Txn) ensureActive() error {
	if t.done {
		return ErrTxnDone
	}
	if !t.began {
		lsn := t.s.log.append(&logRecord{typ: recBegin, txn: t.id})
		t.lastLSN = lsn
		t.began = true
		// Register with the active-transaction table: a fuzzy checkpoint
		// may not advance the log head past our first record — it is the
		// undo information recovery needs if we lose.
		t.s.txnMu.Lock()
		t.s.activeTxns[t.id] = lsn
		t.s.txnMu.Unlock()
	}
	return nil
}

// forgetTxn drops a finished transaction from the active table.
func (s *Store) forgetTxn(t *Txn) {
	if !t.began {
		return
	}
	s.txnMu.Lock()
	delete(s.activeTxns, t.id)
	s.txnMu.Unlock()
}

// Commit makes the transaction durable: Precommit, then wait for the log.
// A transaction that batch-deleted then releases the pages its deletes
// freed (BatchDelete), so it must end with Commit.
func (t *Txn) Commit() error {
	lsn, err := t.Precommit()
	if err != nil {
		return err
	}
	if err := t.s.WaitDurable(lsn); err != nil {
		return err
	}
	return t.s.releaseDeleted(t)
}

// Precommit appends the commit record and returns its LSN without waiting
// for the log: the transaction is finished — it can no longer abort, and its
// effects are what every later transaction sees — but it survives a crash
// only once WaitDurable(lsn) has returned. There is one log, so a
// transaction that pre-commits later has a higher LSN and is never durable
// without this one: a crash loses a suffix of the pre-committed history.
// Isolation between the committing transactions is the responsibility of
// the logical lock layer above. The LSN is 0 for a read-only transaction.
func (t *Txn) Precommit() (uint64, error) {
	// Graceful degradation under a WAL hard budget: when the live log has
	// outgrown the soft budget, commits pay a growing delay — outside every
	// lock — so the checkpointer can catch up before the engine must shed.
	t.s.commitThrottle()
	t.s.ckptMu.RLock()
	lsn, err := t.s.prepareCommit(t)
	t.s.ckptMu.RUnlock()
	return lsn, err
}

// WaitDurable returns once the log is durable up to lsn (at once for 0, or
// when a concurrent flush already covered it). The WAL flush — the
// expensive fsync — runs outside the checkpoint fence and every store lock,
// so concurrent waiters overlap in the log and coalesce their fsyncs (group
// commit); a caller holding many pre-committed LSNs waits once, for the
// largest. With SyncCommits off the log is written but not fsynced.
func (s *Store) WaitDurable(lsn uint64) error {
	if lsn == 0 {
		return nil
	}
	return s.log.flush(lsn)
}

// FollowDurable is WaitDurable for a caller that need not start the flush:
// it rides the next flush another caller starts, and flushes the log itself
// — which it reports — only if none starts within a short hold. It suits
// internal waiters that nobody outside is waiting on, beside callers that
// flush at once.
func (s *Store) FollowDurable(lsn uint64) (flushed bool, err error) {
	if lsn == 0 {
		return false, nil
	}
	return s.log.follow(lsn)
}

// LogEnd returns the LSN that covers every log record appended so far:
// once WaitDurable(LogEnd()) has returned, everything that was pre-committed
// before the call is durable, whoever's it was.
func (s *Store) LogEnd() uint64 { return s.log.size() }

// Durable returns the highest LSN that is durable now: WaitDurable(lsn)
// would return at once for every lsn at or below it. It does not wait.
func (s *Store) Durable() uint64 { return s.log.durable() }

// commitTxn commits an internal auto-committed transaction (DDL) from a
// caller already inside the store.
func (s *Store) commitTxn(t *Txn) error {
	lsn, err := s.prepareCommit(t)
	if err != nil {
		return err
	}
	return s.WaitDurable(lsn)
}

// prepareCommit appends the commit record, releases deferred page frees
// and counts the commit; it returns the LSN the caller must flush to (0 for
// read-only transactions).
func (s *Store) prepareCommit(t *Txn) (uint64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	t.done = true
	if !t.began && t.lastLSN == 0 {
		return 0, nil // read-only transaction: nothing to log
	}
	// Deferred overflow frees become visible with the commit.
	s.freePages(t.freeOnCommit)
	lsn := s.log.append(&logRecord{typ: recCommit, txn: t.id, prevLSN: t.lastLSN})
	s.commits.Add(1)
	// Once the commit record is in the log the transaction no longer
	// constrains the checkpoint redo offset: recovery treats it as finished
	// (or, if the record misses durability, replays and undoes from the
	// still-retained records at or after the current redo point — the head
	// only advances past them at the NEXT checkpoint fence, by which time
	// this transaction is out of the table).
	s.forgetTxn(t)
	return lsn, nil
}

// Abort rolls the transaction back by applying compensations in reverse
// order, logging a CLR for each so recovery can resume an interrupted
// rollback.
func (t *Txn) Abort() error {
	t.s.ckptMu.RLock()
	defer t.s.ckptMu.RUnlock()
	return t.s.abortTxn(t)
}

func (s *Store) abortTxn(t *Txn) error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	if !t.began && t.lastLSN == 0 {
		return nil
	}
	for i := len(t.undoRecs) - 1; i >= 0; i-- {
		if err := s.undoRecord(t, t.undoRecs[i]); err != nil {
			return err
		}
	}
	s.log.append(&logRecord{typ: recAbort, txn: t.id, prevLSN: t.lastLSN})
	s.forgetTxn(t)
	s.aborts.Add(1)
	return nil
}

// undoRecord applies the compensation for one update record and logs it as
// a CLR whose undoNext points before the undone record. The CLR append and
// its page application happen atomically under the page's write latch:
// were they separated, a concurrent operation could stamp the page with a
// higher LSN and write it back before the compensation landed, and redo
// would then skip the CLR — resurrecting the aborted update.
func (s *Store) undoRecord(t *Txn, r *logRecord) error {
	var comp *logRecord
	switch r.typ {
	case recInsert:
		comp = &logRecord{typ: recDelete, heap: r.heap, page: r.page, slot: r.slot}
	case recDelete:
		comp = &logRecord{typ: recInsert, heap: r.heap, page: r.page, slot: r.slot, after: r.before}
	case recSetBytes:
		comp = &logRecord{typ: recSetBytes, page: r.page, slot: r.slot, off: r.off, after: r.before}
	default:
		return nil // redo-only record: no compensation
	}
	f, err := s.pageForRedo(comp.page)
	if err != nil {
		return err
	}
	f.latch.Lock()
	// Undoing the insert of an overflow record releases its chain — but
	// only inserts into RECORD pages can carry an inline overflow header.
	// A loser transaction's overflow-chunk inserts target overflow-flagged
	// pages (already free-flagged once the inline record's undo, which
	// runs first in reverse log order, released the chain) and hold raw
	// payload bytes: parsing those as a chain pointer would free-list
	// whatever pages the garbage pointer reaches.
	freeChain := InvalidPage
	if r.typ == recInsert && f.pg.flags()&(flagOverflow|flagFree) == 0 &&
		len(r.after) >= overflowHeader && r.after[0] == recKindOverflow {
		freeChain = PageID(leU32(r.after[1:]))
	}
	clr := &logRecord{typ: recCLR, txn: t.id, prevLSN: t.lastLSN, undoNext: r.prevLSN, comp: comp}
	lsn := s.log.append(clr)
	t.lastLSN = lsn
	applyToPage(&f.pg, comp, lsn)
	f.latch.Unlock()
	s.pool.unpin(f, true)
	if freeChain != InvalidPage {
		s.freePages(s.chainPages(freeChain))
	}
	return nil
}

// applyToPage executes a single-page record effect on an already latched
// page, advancing — never regressing — the page LSN.
func applyToPage(pg *page, r *logRecord, lsn uint64) {
	switch r.typ {
	case recInsert:
		pg.insertAt(r.slot, r.after)
	case recDelete:
		pg.del(r.slot)
	case recSetBytes:
		if rec, ok := pg.read(r.slot); ok && int(r.off) < len(rec) && len(r.after) == 1 {
			rec[r.off] = r.after[0]
		}
	case recFormatPage:
		pg.format()
		pg.setFlags(r.flags)
		pg.setPrev(r.page2)
		pg.setNext(r.page3)
	case recChain:
		pg.setNext(r.page2)
	case recSetFlags:
		pg.format()
		pg.setFlags(r.flags)
	}
	if lsn > pg.lsn() {
		pg.setLSN(lsn)
	}
}

// applyRedo executes the page effect of a record during recovery, stamping
// the page LSN. Recovery is single-threaded; latches are taken for
// uniformity with the runtime protocol.
func (s *Store) applyRedo(r *logRecord, lsn uint64) error {
	switch r.typ {
	case recInsert, recDelete, recSetBytes, recFormatPage, recChain, recSetFlags:
		f, err := s.pageForRedo(r.page)
		if err != nil {
			return err
		}
		f.latch.Lock()
		applyToPage(&f.pg, r, lsn)
		f.latch.Unlock()
		s.pool.unpin(f, true)
	case recBatchDelete:
		// Batch-delete records are written one per page (grouped and
		// appended under that page's write latch), so the page LSN guard
		// is evaluated once per page — and BEFORE any of its slots is
		// applied, since applying the first slot stamps the page with this
		// very LSN. A page already carrying this LSN or a later one (e.g.
		// an insert that reused a dead slot and reached disk) has the
		// deletes durable and must not be replayed. The per-page grouping
		// below also recovers legacy whole-batch records whose rids span
		// multiple pages.
		skip := map[PageID]bool{}
		for _, rid := range r.rids {
			judged, seen := skip[rid.Page]
			if !seen {
				f, err := s.pageForRedo(rid.Page)
				if err != nil {
					return err
				}
				judged = f.pg.lsn() >= lsn
				s.pool.unpin(f, false)
				skip[rid.Page] = judged
			}
			if judged {
				continue
			}
			if _, err := s.applyPhysicalDelete(rid, lsn); err != nil {
				return err
			}
		}
	}
	return nil
}

// pageForRedo fetches a page, growing the file if the page had not been
// written back before a crash. During recovery's forward pass it also
// keeps the page pinned until the pass ends (see recover).
func (s *Store) pageForRedo(pid PageID) (*frame, error) {
	s.allocMu.Lock()
	grow := uint32(pid) >= s.pageCount
	if grow {
		s.pageCount = uint32(pid) + 1
	}
	s.allocMu.Unlock()
	var f *frame
	var err error
	if grow {
		f, err = s.pool.fresh(pid)
	} else {
		f, err = s.pool.get(pid)
	}
	if err == nil && s.redoHeld != nil && s.redoHeld[pid] == nil {
		s.pool.pin(f)
		s.redoHeld[pid] = f
	}
	return f, err
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
