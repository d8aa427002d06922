package engine

import (
	"sync"
	"testing"

	"demaq/internal/msgstore"
)

func TestSchedulerPriorityThenAge(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("low", 1)
	s.DeclareQueue("high", 10)
	s.DeclareQueue("mid", 5)
	s.Add("low", 1)
	s.Add("mid", 2)
	s.Add("high", 3)
	s.Add("high", 4)

	expect := []struct {
		queue string
		id    msgstore.MsgID
	}{
		{"high", 3}, {"high", 4}, {"mid", 2}, {"low", 1},
	}
	for i, want := range expect {
		q, id, ok := claim(s)
		if !ok || q != want.queue || id != want.id {
			t.Fatalf("claim %d = (%s,%d), want (%s,%d)", i, q, id, want.queue, want.id)
		}
		s.DoneN(1)
	}
	if !s.Idle() {
		t.Fatal("should be idle")
	}
}

func TestSchedulerTieBreaksOnOldestHead(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("a", 5)
	s.DeclareQueue("b", 5)
	s.Add("b", 2)
	s.Add("a", 1)
	s.Add("b", 3)
	q, id, _ := claim(s)
	if q != "a" || id != 1 {
		t.Fatalf("first claim (%s,%d)", q, id)
	}
	s.DoneN(1)
	q, id, _ = claim(s)
	if q != "b" || id != 2 {
		t.Fatalf("second claim (%s,%d)", q, id)
	}
	s.DoneN(1)
	claim(s)
	s.DoneN(1)
}

func TestSchedulerRequeuePreservesOrder(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("q", 0)
	s.Add("q", 10)
	s.Add("q", 11)
	_, id, _ := claim(s)
	if id != 10 {
		t.Fatal("first")
	}
	s.RequeueFront("q", []msgstore.MsgID{10}) // deadlock victim goes back to the front
	_, id, _ = claim(s)
	if id != 10 {
		t.Fatalf("requeued message should be claimed first, got %d", id)
	}
	s.DoneN(1)
	_, id, _ = claim(s)
	if id != 11 {
		t.Fatal("order after requeue")
	}
	s.DoneN(1)
}

func TestSchedulerCloseUnblocksClaimers(t *testing.T) {
	s := newScheduler()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, ok := claim(s); ok {
				t.Error("claim after close should report !ok")
			}
		}()
	}
	s.Close()
	wg.Wait()
}

func TestSchedulerWaitIdle(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("q", 0)
	s.Add("q", 1)
	done := make(chan struct{})
	go func() {
		s.WaitIdle()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("WaitIdle returned while work pending")
	default:
	}
	claim(s)
	s.DoneN(1)
	<-done // must return now
	if s.Backlog() != 0 {
		t.Fatal("backlog")
	}
}

func TestSchedulerConcurrentProducersConsumers(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("q", 0)
	const n = 1000
	var claimed sync.Map
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, id, ok := claim(s)
				if !ok {
					return
				}
				if _, dup := claimed.LoadOrStore(id, true); dup {
					t.Errorf("message %d claimed twice", id)
				}
				s.DoneN(1)
			}
		}()
	}
	for i := 1; i <= n; i++ {
		s.Add("q", msgstore.MsgID(i))
	}
	s.WaitIdle()
	s.Close()
	wg.Wait()
	count := 0
	claimed.Range(func(any, any) bool { count++; return true })
	if count != n {
		t.Fatalf("claimed %d of %d", count, n)
	}
}

// claim takes a batch of one, as a worker with BatchSize 1 does.
func claim(s *scheduler) (queue string, id msgstore.MsgID, ok bool) {
	queue, _, ids, ok := s.ClaimBatch(1, nil)
	if !ok {
		return "", 0, false
	}
	return queue, ids[0], true
}
