package engine

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"

	"demaq/internal/msgstore"
)

// scheduler implements the execution model of Sec. 3.1/4.4.2: it maintains
// the set of unprocessed messages and hands them to workers as same-queue
// batches (ClaimBatch; a claim of one message is a batch of one) — honoring
// queue priorities first and temporal order (message ID) second —
// "a message in a high priority queue may be processed before another one
// stored in a queue with a lower priority, even if it has been created
// more recently".
//
// Dispatch is O(log #queues): non-empty queues live in a priority heap
// keyed (priority desc, head message ID asc), so ClaimBatch pops the best
// queue directly instead of scanning all queues. Each queue buffers its
// messages in a ring deque, making both Add (back) and RequeueFront (front:
// a deadlock victim, a preempted suffix) O(1) per message. Claimers and idle-waiters use separate condition
// variables so adding one message signals exactly one worker instead of
// waking the whole pool.
type scheduler struct {
	mu       sync.Mutex
	workCond *sync.Cond // waits in ClaimBatch; Signal per available message
	idleCond *sync.Cond // waits in WaitIdle; Broadcast on idle transitions
	queues   map[string]*schedQueue
	active   queueHeap // non-empty queues, best dispatch candidate on top
	pending  int
	inflight int
	closed   bool

	// topPrio mirrors the priority of the best runnable queue (MinInt64
	// when none), maintained on every heap mutation. Workers poll it with
	// PreemptFor between the messages of a claimed batch, without taking
	// the scheduler lock, so a batch of low-priority work yields to
	// higher-priority arrivals at message granularity.
	topPrio atomic.Int64
}

// schedQueue is one queue's dispatch state: a ring-buffer deque of message
// IDs plus its position in the active heap (-1 while empty).
type schedQueue struct {
	name     string
	priority int
	heapIdx  int

	buf  []msgstore.MsgID
	head int
	n    int
}

func (q *schedQueue) empty() bool           { return q.n == 0 }
func (q *schedQueue) front() msgstore.MsgID { return q.buf[q.head] }

func (q *schedQueue) grow() {
	if q.n < len(q.buf) {
		return
	}
	newCap := 2 * len(q.buf)
	if newCap < 8 {
		newCap = 8
	}
	nb := make([]msgstore.MsgID, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf, q.head = nb, 0
}

func (q *schedQueue) pushBack(id msgstore.MsgID) {
	q.grow()
	q.buf[(q.head+q.n)%len(q.buf)] = id
	q.n++
}

func (q *schedQueue) pushFront(id msgstore.MsgID) {
	q.grow()
	q.head = (q.head - 1 + len(q.buf)) % len(q.buf)
	q.buf[q.head] = id
	q.n++
}

func (q *schedQueue) popFront() msgstore.MsgID {
	id := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return id
}

// queueHeap orders active queues by priority (higher first), breaking ties
// on the oldest head message (smaller ID first).
type queueHeap []*schedQueue

func (h queueHeap) Len() int { return len(h) }
func (h queueHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].front() < h[j].front()
}
func (h queueHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *queueHeap) Push(x any) {
	q := x.(*schedQueue)
	q.heapIdx = len(*h)
	*h = append(*h, q)
}
func (h *queueHeap) Pop() any {
	old := *h
	q := old[len(old)-1]
	old[len(old)-1] = nil
	q.heapIdx = -1
	*h = old[:len(old)-1]
	return q
}

func newScheduler() *scheduler {
	s := &scheduler{queues: map[string]*schedQueue{}}
	s.workCond = sync.NewCond(&s.mu)
	s.idleCond = sync.NewCond(&s.mu)
	s.topPrio.Store(math.MinInt64)
	return s
}

// updateTopLocked refreshes the lock-free best-priority mirror. Caller
// holds s.mu; must run after every mutation of the active heap.
func (s *scheduler) updateTopLocked() {
	if len(s.active) > 0 {
		s.topPrio.Store(int64(s.active[0].priority))
	} else {
		s.topPrio.Store(math.MinInt64)
	}
}

// PreemptFor reports whether a queue with a priority strictly above the
// given one has runnable messages. Batch workers poll it between messages;
// equal-priority work never preempts a running batch.
func (s *scheduler) PreemptFor(priority int) bool {
	return s.topPrio.Load() > int64(priority)
}

// queueLocked returns (creating if needed) the dispatch state of a queue.
func (s *scheduler) queueLocked(name string) *schedQueue {
	q, ok := s.queues[name]
	if !ok {
		q = &schedQueue{name: name, heapIdx: -1}
		s.queues[name] = q
	}
	return q
}

// DeclareQueue registers a queue with its priority.
func (s *scheduler) DeclareQueue(name string, priority int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queueLocked(name)
	q.priority = priority
	if q.heapIdx >= 0 {
		heap.Fix(&s.active, q.heapIdx)
	}
	s.updateTopLocked()
}

// Add makes a message available for processing.
func (s *scheduler) Add(queue string, id msgstore.MsgID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queueLocked(queue)
	q.pushBack(id)
	if q.heapIdx < 0 {
		heap.Push(&s.active, q)
	}
	// A back-push of a non-empty queue leaves its head (the sort key)
	// unchanged, so no heap fix is needed.
	s.updateTopLocked()
	s.pending++
	s.workCond.Signal()
}

// RequeueFront returns claimed messages to the front of their queue,
// preserving order (ids must be in claim order): a deadlock victim that
// spent its retries, a message parked on a dead device, or the unprocessed
// suffix of a batch preempted by higher-priority work.
func (s *scheduler) RequeueFront(queue string, ids []msgstore.MsgID) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queueLocked(queue)
	for i := len(ids) - 1; i >= 0; i-- {
		q.pushFront(ids[i])
	}
	if q.heapIdx < 0 {
		heap.Push(&s.active, q)
	} else {
		heap.Fix(&s.active, q.heapIdx) // head got older
	}
	s.updateTopLocked()
	s.pending += len(ids)
	s.inflight -= len(ids)
	for range ids {
		s.workCond.Signal()
	}
}

// ClaimBatch blocks until a message is available (or the scheduler closes)
// and pops up to max runnable messages from the best queue — the
// highest-priority non-empty one, oldest head first on ties — in one lock
// round, appending them to buf (callers reuse the buffer across rounds). The batch preserves the dispatch order —
// priority first, message ID second — and comes from a single queue, so
// the engine can process it under one home-queue lock. It also returns the
// queue's priority so the worker can poll PreemptFor between messages.
//
// A claim never takes more than half of a queue's runnable backlog
// (rounded up): a deep backlog still fills batches to the cap, but a
// shallow one is not drained by a single claimer — the remainder stays
// claimable by other workers and by the priority dispatch, so a
// higher-priority arrival overtakes it exactly as it would under claims
// of one. (A batch commits as one unit; once claimed,
// its messages are beyond preemption, so the claim itself must stay
// modest when the backlog is.)
func (s *scheduler) ClaimBatch(max int, buf []msgstore.MsgID) (queue string, priority int, ids []msgstore.MsgID, ok bool) {
	if max < 1 {
		max = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return "", 0, nil, false
		}
		if len(s.active) > 0 {
			best := s.active[0]
			n := (best.n + 1) / 2
			if n > max {
				n = max
			}
			ids = buf
			for i := 0; i < n; i++ {
				ids = append(ids, best.popFront())
			}
			if best.empty() {
				heap.Pop(&s.active)
			} else {
				heap.Fix(&s.active, 0) // head advanced to a newer message
			}
			s.updateTopLocked()
			s.pending -= n
			s.inflight += n
			return best.name, best.priority, ids, true
		}
		s.workCond.Wait()
	}
}

// DoneN reports completion of n claimed messages (a batch, possibly a
// partial one after preemption).
func (s *scheduler) DoneN(n int) {
	s.mu.Lock()
	s.inflight -= n
	if s.pending == 0 && s.inflight == 0 {
		s.idleCond.Broadcast()
	}
	s.mu.Unlock()
}

// Close wakes all workers and stops further claims.
func (s *scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.workCond.Broadcast()
	s.idleCond.Broadcast()
	s.mu.Unlock()
}

// Idle reports whether no work is pending or in flight.
func (s *scheduler) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending == 0 && s.inflight == 0
}

// WaitIdle blocks until the scheduler is idle (tests, Drain).
func (s *scheduler) WaitIdle() {
	s.mu.Lock()
	for !(s.pending == 0 && s.inflight == 0) && !s.closed {
		s.idleCond.Wait()
	}
	s.mu.Unlock()
}

// Backlog returns the number of pending messages.
func (s *scheduler) Backlog() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}
