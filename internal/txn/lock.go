// Package txn provides the logical concurrency control for Demaq message
// processing: a hierarchical lock manager with intention modes and
// wait-for-graph deadlock detection.
//
// The paper (Sec. 4.3) observes that slices form a natural locking
// granularity between whole queues and single messages: locking just the
// affected slices preserves full serializability of message-processing
// transactions while admitting more concurrency than queue-level locks.
// The engine implements both granularities (experiment E2) on top of this
// package; resources are named hierarchically by convention
// ("q/<queue>", "sl/<slicing>/<key>", "m/<msgid>"; queue granularity names
// a whole slicing "sl/<slicing>").
package txn

import (
	"errors"
	"strings"
	"sync"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes: intention-shared, intention-exclusive, shared, exclusive.
const (
	IS Mode = iota
	IX
	S
	X
)

// String returns the conventional mode name.
func (m Mode) String() string {
	switch m {
	case IS:
		return "IS"
	case IX:
		return "IX"
	case S:
		return "S"
	case X:
		return "X"
	}
	return "?"
}

// compatible is the classic multi-granularity compatibility matrix.
var compatible = [4][4]bool{
	IS: {IS: true, IX: true, S: true, X: false},
	IX: {IS: true, IX: true, S: false, X: false},
	S:  {IS: true, IX: false, S: true, X: false},
	X:  {IS: false, IX: false, S: false, X: false},
}

// supremum[a][b] is the weakest mode at least as strong as both.
var supremum = [4][4]Mode{
	IS: {IS: IS, IX: IX, S: S, X: X},
	IX: {IS: IX, IX: IX, S: X, X: X},
	S:  {IS: S, IX: X, S: S, X: X},
	X:  {IS: X, IX: X, S: X, X: X},
}

// Supremum returns the weakest mode at least as strong as a and b: the mode
// a transaction holds after asking for both.
func Supremum(a, b Mode) Mode { return supremum[a][b] }

// ErrDeadlock is returned to the victim of a deadlock; the caller is
// expected to abort and retry its message-processing transaction.
var ErrDeadlock = errors.New("txn: deadlock detected")

// waiter is a blocked lock request.
type waiter struct {
	txn    uint64
	mode   Mode
	ticket uint64
	ready  chan struct{}
}

type lockState struct {
	holders map[uint64]Mode
	waiters []*waiter
}

// LockManager grants and tracks locks. All methods are safe for concurrent
// use.
type LockManager struct {
	mu      sync.Mutex
	locks   map[string]*lockState
	held    map[uint64]map[string]Mode // txn → resource → mode
	waitFor map[uint64]map[uint64]bool // waiter txn → holder txns
	tickets uint64

	// stats
	waits, deadlocks uint64
}

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:   map[string]*lockState{},
		held:    map[uint64]map[string]Mode{},
		waitFor: map[uint64]map[uint64]bool{},
	}
}

// Stats returns (total waits, deadlocks resolved).
func (lm *LockManager) Stats() (waits, deadlocks uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.waits, lm.deadlocks
}

// Acquire obtains resource in mode for txn, blocking until granted. It
// returns ErrDeadlock if waiting would close a cycle; the transaction then
// still holds its other locks and must be released with ReleaseAll.
func (lm *LockManager) Acquire(txn uint64, resource string, mode Mode) error {
	lm.mu.Lock()
	ls, ok := lm.locks[resource]
	if !ok {
		ls = &lockState{holders: map[uint64]Mode{}}
		lm.locks[resource] = ls
	}
	// Upgrade path: compute the target mode.
	target := mode
	if cur, holds := ls.holders[txn]; holds {
		target = supremum[cur][mode]
		if target == cur {
			lm.mu.Unlock()
			return nil
		}
	}
	if lm.grantable(ls, txn, target, 0) {
		lm.grant(ls, txn, resource, target)
		lm.mu.Unlock()
		return nil
	}

	// Must wait: detect deadlock before blocking.
	w := &waiter{txn: txn, mode: target, ready: make(chan struct{})}
	lm.tickets++
	w.ticket = lm.tickets
	blockers := lm.blockers(ls, txn, target)
	if lm.wouldDeadlock(txn, blockers) {
		lm.deadlocks++
		lm.mu.Unlock()
		return ErrDeadlock
	}
	lm.waits++
	ls.waiters = append(ls.waiters, w)
	lm.setWaitFor(txn, blockers)
	lm.mu.Unlock()

	<-w.ready
	return nil
}

// grantable reports whether txn can take mode on ls now. A request must be
// compatible with all other holders; to prevent starvation it must also not
// overtake an earlier incompatible waiter (unless that waiter is itself
// blocked only by this txn's current holdings — handled by the upgrade
// fast-path above).
func (lm *LockManager) grantable(ls *lockState, txn uint64, mode Mode, ticket uint64) bool {
	for holder, hmode := range ls.holders {
		if holder == txn {
			continue
		}
		if !compatible[mode][hmode] {
			return false
		}
	}
	for _, w := range ls.waiters {
		if w.txn == txn {
			continue
		}
		if ticket != 0 && w.ticket > ticket {
			continue // later waiter, no fairness obligation
		}
		if ticket == 0 && !compatible[mode][w.mode] {
			// New request behind an incompatible earlier waiter, unless the
			// waiter is blocked (transitively) by this txn: upgrades must
			// not queue behind requests they block.
			if _, holds := ls.holders[txn]; !holds {
				return false
			}
		}
	}
	return true
}

// blockers lists the transactions this request must wait for.
func (lm *LockManager) blockers(ls *lockState, txn uint64, mode Mode) []uint64 {
	var out []uint64
	for holder, hmode := range ls.holders {
		if holder != txn && !compatible[mode][hmode] {
			out = append(out, holder)
		}
	}
	for _, w := range ls.waiters {
		if w.txn != txn && !compatible[mode][w.mode] {
			out = append(out, w.txn)
		}
	}
	return out
}

func (lm *LockManager) setWaitFor(txn uint64, blockers []uint64) {
	m := map[uint64]bool{}
	for _, b := range blockers {
		m[b] = true
	}
	lm.waitFor[txn] = m
}

// wouldDeadlock checks whether adding edges txn→blockers closes a cycle in
// the wait-for graph.
func (lm *LockManager) wouldDeadlock(txn uint64, blockers []uint64) bool {
	seen := map[uint64]bool{}
	var dfs func(cur uint64) bool
	dfs = func(cur uint64) bool {
		if cur == txn {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		for next := range lm.waitFor[cur] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	for _, b := range blockers {
		if dfs(b) {
			return true
		}
	}
	return false
}

func (lm *LockManager) grant(ls *lockState, txn uint64, resource string, mode Mode) {
	ls.holders[txn] = mode
	hm, ok := lm.held[txn]
	if !ok {
		hm = map[string]Mode{}
		lm.held[txn] = hm
	}
	hm[resource] = mode
	delete(lm.waitFor, txn)
}

// ReleaseAll drops every lock of txn (strict two-phase locking: all locks
// are held to transaction end) and wakes eligible waiters. It visits only
// txn's own locks: a released transaction is never a queued waiter, because
// Acquire refuses a deadlocking request before it queues it, and a queued
// request's goroutine is blocked in Acquire until it is granted — the same
// goroutine that later releases.
func (lm *LockManager) ReleaseAll(txn uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	resources := lm.held[txn]
	delete(lm.held, txn)
	delete(lm.waitFor, txn)
	for res := range resources {
		ls := lm.locks[res]
		if ls == nil {
			continue
		}
		delete(ls.holders, txn)
		lm.wake(res, ls)
		if len(ls.holders) == 0 && len(ls.waiters) == 0 {
			delete(lm.locks, res)
		}
	}
}

// wake grants as many queued waiters as compatibility admits, in ticket
// order.
func (lm *LockManager) wake(resource string, ls *lockState) {
	for i := 0; i < len(ls.waiters); {
		w := ls.waiters[i]
		target := w.mode
		if cur, holds := ls.holders[w.txn]; holds {
			target = supremum[cur][w.mode]
		}
		if lm.grantable(ls, w.txn, target, w.ticket) {
			ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
			lm.grant(ls, w.txn, resource, target)
			close(w.ready)
			continue
		}
		i++
	}
	// Re-derive wait-for edges for the remaining waiters.
	for _, w := range ls.waiters {
		lm.setWaitFor(w.txn, lm.blockers(ls, w.txn, w.mode))
	}
}

// Resource builds a hierarchical resource name, with one allocation.
func Resource(parts ...string) string { return strings.Join(parts, "/") }
