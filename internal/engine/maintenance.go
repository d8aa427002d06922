package engine

import (
	"time"

	"demaq/internal/slicing"
	locks "demaq/internal/txn"
)

// CollectGarbage runs one retention GC pass (Sec. 2.3.3). It may run beside
// the rule workers: each queue's garbage is picked and unlinked under the
// queue's exclusive lock, which keeps out the transactions that work in the
// queue (they hold its intention lock) and, above all, a rule's qs:queue()
// read (which holds it shared): that read lists the queue and then fetches
// what it listed, and a message removed in between would fail the rule. The
// collector holds one lock at a time and nothing else while it waits for it,
// so it can delay the workers but never deadlock with them. The disk deletes
// of every queue, and of the resets nothing depends on any more, commit
// after the last lock is released, in one transaction with one log flush
// (slicing.Pass): no rule waits for the collector's flush.
func (e *Engine) CollectGarbage() (int, error) {
	if e.degraded.Load() {
		return 0, ErrDegraded
	}
	started := time.Now()
	pass := e.slices.BeginPass()
	total := 0
	for _, queue := range e.ms.QueueNames() {
		n, err := e.collectQueue(pass, queue)
		if err != nil {
			return total, err
		}
		total += n
	}
	if err := pass.Commit(); err != nil {
		e.noteStorageError(err)
		return total, err
	}
	e.stats.collected.Add(uint64(total))
	e.stats.gcPasses.Add(1)
	e.stats.gcPassNs.Add(uint64(time.Since(started)))
	return total, nil
}

// collectQueue picks and unlinks one queue's garbage under the queue's
// exclusive lock.
func (e *Engine) collectQueue(pass *slicing.Pass, queue string) (int, error) {
	txnID := e.txnSeq.Add(1)
	defer e.lm.ReleaseAll(txnID)
	// Only ErrDeadlock can come back, and hardly that: nobody waits for a
	// transaction that holds nothing. Ask again.
	for e.lm.Acquire(txnID, locks.Resource("q", queue), locks.X) != nil {
		time.Sleep(50 * time.Microsecond)
	}
	return pass.Collect(queue)
}

// checkpointLoop is the fuzzy checkpoint scheduler. It polls the page
// store and checkpoints when any trigger fires: the live WAL outgrew the
// soft budget (the primary signal under load), too many buffered pages are
// dirty (bounds checkpoint write-back bursts), or CheckpointInterval
// elapsed since the last checkpoint (bounds replay on an idle node).
// Checkpoints are fuzzy: commits keep flowing while one runs, so the loop
// needs no coordination with the workers.
func (e *Engine) checkpointLoop() {
	defer e.wg.Done()
	soft := e.ms.PageStore().WALSoftBudget()
	// A checkpoint rewrites every dirty page once; capping the dirty set
	// at half the buffer pool keeps each cycle's write-back burst small.
	dirtyTrigger := e.cfg.Store.Store.BufferPages / 2
	if dirtyTrigger <= 0 {
		dirtyTrigger = 512
	}
	poll := 200 * time.Millisecond
	if iv := e.cfg.CheckpointInterval; iv > 0 && iv < poll {
		poll = iv
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-e.stopCkpt:
			return
		case <-t.C:
			if e.degraded.Load() {
				continue
			}
			ps := e.ms.PageStore()
			due := soft > 0 && int64(ps.LiveLogBytes()) > soft
			if !due && dirtyTrigger > 0 {
				due = ps.Stats().DirtyPages >= dirtyTrigger
			}
			if !due && e.cfg.CheckpointInterval > 0 {
				due = time.Since(last) >= e.cfg.CheckpointInterval
			}
			if !due {
				continue
			}
			if err := ps.Checkpoint(); err != nil {
				e.noteStorageError(err)
				e.log.Error("checkpoint failed", "err", err)
				continue
			}
			last = time.Now()
		}
	}
}

func (e *Engine) gcLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stopGC:
			return
		case <-t.C:
			if _, err := e.CollectGarbage(); err != nil {
				e.log.Error("gc failed", "err", err)
			}
		}
	}
}
