package store

import (
	"fmt"
	"maps"
	"slices"
	"time"
)

// Crash recovery, ARIES style reduced to the needs of an append-only
// message store:
//
//  1. a single forward pass performs analysis and redo together, starting
//     at the redo offset the last complete checkpoint published in the
//     store header — not at the log start, so replay work is bounded by
//     checkpoint frequency, not uptime. Every record is re-applied unless
//     the target page already carries an LSN at or beyond the record
//     (pages are stamped with the LSN of the last change, making redo
//     idempotent);
//  2. loser transactions — those with neither a commit nor an abort-end
//     record — are rolled back using the update records collected during
//     the forward pass, logging CLRs exactly like a runtime abort. Every
//     loser's records lie at or after the redo offset: a fuzzy checkpoint
//     never advances it past the first record of a transaction that was
//     still active at its begin fence;
//  3. the heap tails and the free list are rebuilt in one sequential pass
//     over the data file, and pages still referenced by live overflow
//     pointers are rescued from the free list (closing the window between
//     deferred overflow frees and the transaction outcome).
//
// Step 3 runs in Store.load (rebuildChainsAndFreeList).
func (s *Store) recover() error {
	started := time.Now()
	replayed := uint64(0)
	defer func() {
		s.recReplayed.Store(replayed)
		s.lastRecNs.Store(int64(time.Since(started)))
	}()
	type txnState struct {
		updates  []*logRecord
		lastLSN  uint64
		finished bool // commit or abort-end seen
	}
	txns := map[uint64]*txnState{}
	get := func(id uint64) *txnState {
		t, ok := txns[id]
		if !ok {
			t = &txnState{}
			txns[id] = t
		}
		return t
	}

	// No page is written back before redo ends: the first write-back of a
	// page logs a full-page image, which the next recovery restores
	// unconditionally, and an image of a half-redone page would erase the
	// records replayed before it should this recovery crash. So the
	// forward pass keeps every page it touches pinned (the pool grows past
	// its capacity to the pages touched since the redo offset, which the
	// checkpoint scheduler bounds) and unpins them before undo, whose
	// CLRs then land after any image, as in a runtime abort.
	s.redoHeld = map[PageID]*frame{}
	maxTxn := uint64(0)
	err := s.log.scanFrom(s.log.headOffset(), func(r *logRecord) error {
		replayed++
		if r.txn > maxTxn {
			maxTxn = r.txn
		}
		switch r.typ {
		case recBegin:
			get(r.txn).lastLSN = r.lsn
		case recCommit, recAbort:
			get(r.txn).finished = true
		case recCheckpoint, recCkptBegin, recCkptEnd:
			// Checkpoint bracket records carry no page changes; the redo
			// offset recovery starts from comes from the store header, which
			// only ever points at a COMPLETE checkpoint (the slot is
			// published after recCkptEnd is durable).
		case recFullPage:
			// Restore the image unconditionally: the on-disk page may be a
			// torn mix of two states whose LSN field cannot be trusted.
			// The image carries the correct page LSN; records after it in
			// the log replay on top under the normal LSN guard.
			if err := s.applyFullPage(r); err != nil {
				return err
			}
		case recCLR:
			st := get(r.txn)
			st.lastLSN = r.lsn
			// A CLR both redoes its compensation and cancels the undo of
			// the original record (everything at or after undoNext is
			// already compensated).
			var remaining []*logRecord
			for _, u := range st.updates {
				if u.lsn <= r.undoNext {
					remaining = append(remaining, u)
				}
			}
			st.updates = remaining
			if err := s.redoIfNeeded(r.comp, r.lsn); err != nil {
				return err
			}
		default:
			st := get(r.txn)
			st.lastLSN = r.lsn
			switch r.typ {
			case recInsert, recDelete, recSetBytes:
				st.updates = append(st.updates, r)
			}
			if err := s.redoIfNeeded(r, r.lsn); err != nil {
				return err
			}
		}
		return nil
	})
	s.recFrames = s.pool.frameCount()
	held := s.redoHeld
	s.redoHeld = nil
	// In page order, so that the write-backs the unpins start are the same
	// on every run of a recovery.
	for _, pid := range slices.Sorted(maps.Keys(held)) {
		s.pool.unpin(held[pid], false)
	}
	if err != nil {
		return err
	}

	// Undo losers.
	for id, st := range txns {
		if st.finished {
			continue
		}
		t := &Txn{s: s, id: id, lastLSN: st.lastLSN, began: true}
		for i := len(st.updates) - 1; i >= 0; i-- {
			if err := s.undoRecord(t, st.updates[i]); err != nil {
				return err
			}
		}
		s.log.append(&logRecord{typ: recAbort, txn: id, prevLSN: t.lastLSN})
	}
	if maxTxn >= s.nextTxn.Load() {
		s.nextTxn.Store(maxTxn + 1)
	}
	return nil
}

// applyFullPage overwrites a page with its logged image (redo-only). The
// image bytes include the page's LSN as of the snapshot, so the LSN guard
// of subsequent records keeps working after the restore.
func (s *Store) applyFullPage(r *logRecord) error {
	if len(r.after) != PageSize {
		return fmt.Errorf("store: full-page image for page %d has %d bytes", r.page, len(r.after))
	}
	f, err := s.pageForRedo(r.page)
	if err != nil {
		return err
	}
	f.latch.Lock()
	copy(f.pg.buf, r.after)
	f.latch.Unlock()
	s.pool.unpin(f, true)
	return nil
}

// redoIfNeeded applies a record unless the target page is already current.
// Multi-page records (batch deletes) delegate per-page checking to the
// apply path, which never regresses a page LSN.
func (s *Store) redoIfNeeded(r *logRecord, lsn uint64) error {
	switch r.typ {
	case recInsert, recDelete, recSetBytes, recFormatPage, recChain, recSetFlags:
		f, err := s.pageForRedo(r.page)
		if err != nil {
			return err
		}
		current := f.pg.lsn() >= lsn
		s.pool.unpin(f, false)
		if current {
			return nil
		}
		return s.applyRedo(r, lsn)
	case recBatchDelete:
		return s.applyRedo(r, lsn)
	}
	return nil
}
