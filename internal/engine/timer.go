package engine

import (
	"container/heap"
	"fmt"
	"strconv"
	"sync"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/xdm"
)

// timerService implements echo queues (paper Sec. 2.1.3): a message placed
// into an echo queue is re-enqueued into its target queue after its timeout
// expires. Timeout and target are message properties ("timeout" in
// milliseconds, "target" a queue name). Echo queues are persistent like any
// other queue, so pending timers survive restarts: on startup the engine
// re-schedules every unprocessed echo message, firing immediately when the
// deadline already passed.
type timerService struct {
	eng     *Engine
	mu      sync.Mutex
	pq      timerHeap
	kick    chan struct{}
	stop    chan struct{}
	started bool
}

type timerEntry struct {
	at    time.Time
	queue string
	id    msgstore.MsgID
}

type timerHeap []timerEntry

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newTimerService(e *Engine) *timerService {
	return &timerService{
		eng:  e,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
}

// schedule registers an unprocessed echo-queue message.
func (t *timerService) schedule(queue string, id msgstore.MsgID) {
	msg, ok := t.eng.ms.Get(id)
	if !ok {
		return
	}
	timeout := time.Duration(0)
	if v, ok := msg.Props["timeout"]; ok {
		if ms, err := strconv.ParseInt(v.StringValue(), 10, 64); err == nil {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	at := msg.Enqueued.Add(timeout)
	t.mu.Lock()
	heap.Push(&t.pq, timerEntry{at: at, queue: queue, id: id})
	t.mu.Unlock()
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

func (t *timerService) start() {
	t.mu.Lock()
	if t.started {
		t.mu.Unlock()
		return
	}
	t.started = true
	t.mu.Unlock()
	t.eng.wg.Add(1)
	go t.loop()
}

func (t *timerService) shutdown() {
	t.mu.Lock()
	started := t.started
	t.started = false
	t.mu.Unlock()
	if started {
		close(t.stop)
	}
}

func (t *timerService) loop() {
	defer t.eng.wg.Done()
	for {
		t.mu.Lock()
		var wait time.Duration = time.Hour
		var due *timerEntry
		if t.pq.Len() > 0 {
			now := time.Now()
			if !t.pq[0].at.After(now) {
				e := heap.Pop(&t.pq).(timerEntry)
				due = &e
			} else {
				wait = t.pq[0].at.Sub(now)
			}
		}
		t.mu.Unlock()
		if due != nil {
			if err := t.fire(due.queue, due.id); err != nil {
				t.eng.log.Error("echo timer failed", "queue", due.queue, "id", due.id, "err", err)
			}
			continue
		}
		timer := time.NewTimer(wait)
		select {
		case <-t.stop:
			timer.Stop()
			return
		case <-t.kick:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// fire moves the payload of an expired echo message into its target queue
// and consumes the echo message, in one transaction. An echo it cannot
// deliver — no target, an unknown target, or a payload the target's
// property expressions fail on — is consumed together with its error
// message instead, like a message whose rule failed (Sec. 3.6).
func (t *timerService) fire(queue string, id msgstore.MsgID) error {
	e := t.eng
	msg, ok := e.ms.Get(id)
	if !ok || msg.Processed {
		return nil
	}
	target := ""
	if v, ok := msg.Props["target"]; ok {
		target = v.StringValue()
	}
	if target == "" {
		e.handleRuleError(queue, id, fmt.Errorf("echo message %d has no target property", id))
		return nil
	}
	if _, ok := e.ms.Queue(target); !ok {
		e.handleRuleError(queue, id, fmt.Errorf("echo target queue %q does not exist", target))
		return nil
	}
	doc, err := e.ms.Doc(id)
	if err != nil {
		return err
	}
	now := time.Now().UTC()
	system := map[string]xdm.Value{
		property.SysCreatingRule: xdm.NewString("echo:" + queue),
		property.SysCreated:      xdm.NewDateTime(now),
	}
	props, err := e.prog.Properties.Evaluate(target, doc, nil, msg.Props, system, now)
	if err != nil {
		e.handleRuleError(queue, id, err)
		return nil
	}
	tx := e.ms.Begin()
	if err := tx.Enqueue(target, doc, props, now); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.MarkProcessed(id); err != nil {
		tx.Abort()
		return err
	}
	if err := e.commitExternal(tx, stagedMsg{queue: target, props: props}); err != nil {
		return err
	}
	e.stats.enqueued.Add(1)
	return nil
}
