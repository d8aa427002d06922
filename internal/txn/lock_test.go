package txn

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCompatibilityMatrix(t *testing.T) {
	// Spot-check the classic matrix.
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, IS, true}, {IS, IX, true}, {IS, S, true}, {IS, X, false},
		{IX, IX, true}, {IX, S, false}, {IX, X, false},
		{S, S, true}, {S, X, false},
		{X, X, false},
	}
	for _, c := range cases {
		if compatible[c.a][c.b] != c.want || compatible[c.b][c.a] != c.want {
			t.Errorf("compat(%s,%s) != %v", c.a, c.b, c.want)
		}
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "q/a", S); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "q/a", S); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestExclusiveBlocks(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "q/a", X); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := lm.Acquire(2, "q/a", X); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("X should block behind X")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("waiter not woken")
	}
	lm.ReleaseAll(2)
}

func TestUpgrade(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "r", S); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "r", X); err != nil {
		t.Fatal(err)
	}
	if got := lm.Held(1)["r"]; got != X {
		t.Fatalf("after upgrade: %s", got)
	}
	// Another S must now block.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(2, "r", S) }()
	select {
	case <-done:
		t.Fatal("S granted against X")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
}

func TestIntentionModes(t *testing.T) {
	lm := NewLockManager()
	// Two writers on different slices of the same queue: IX + IX coexist.
	if err := lm.Acquire(1, "q/orders", IX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "q/orders", IX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "sl/byid/1", X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "sl/byid/2", X); err != nil {
		t.Fatal(err)
	}
	// A queue-level S must block while IX holders exist.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(3, "q/orders", S) }()
	select {
	case <-done:
		t.Fatal("S granted against IX")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(3)
}

func TestDeadlockDetected(t *testing.T) {
	lm := NewLockManager()
	if err := lm.Acquire(1, "a", X); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "b", X); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 2)
	go func() { errCh <- lm.Acquire(1, "b", X) }() // 1 waits for 2
	time.Sleep(20 * time.Millisecond)
	err := lm.Acquire(2, "a", X) // would close the cycle
	if err != ErrDeadlock {
		t.Fatalf("expected deadlock, got %v", err)
	}
	lm.ReleaseAll(2) // victim aborts
	if err := <-errCh; err != nil {
		t.Fatalf("survivor should proceed: %v", err)
	}
	lm.ReleaseAll(1)
	if _, dl := lm.Stats(); dl != 1 {
		t.Fatalf("deadlock count: %d", dl)
	}
}

func TestThreeWayDeadlock(t *testing.T) {
	lm := NewLockManager()
	lm.Acquire(1, "a", X)
	lm.Acquire(2, "b", X)
	lm.Acquire(3, "c", X)
	e1 := make(chan error, 1)
	e2 := make(chan error, 1)
	go func() { e1 <- lm.Acquire(1, "b", X) }()
	go func() { e2 <- lm.Acquire(2, "c", X) }()
	time.Sleep(20 * time.Millisecond)
	if err := lm.Acquire(3, "a", X); err != ErrDeadlock {
		t.Fatalf("expected deadlock, got %v", err)
	}
	lm.ReleaseAll(3)
	if err := <-e2; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	if err := <-e1; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
}

func TestNoStarvationWriterBehindReaders(t *testing.T) {
	lm := NewLockManager()
	lm.Acquire(1, "r", S)
	writerDone := make(chan error, 1)
	go func() { writerDone <- lm.Acquire(2, "r", X) }()
	time.Sleep(10 * time.Millisecond)
	// A later reader must queue behind the waiting writer, not overtake it.
	readerDone := make(chan error, 1)
	go func() { readerDone <- lm.Acquire(3, "r", S) }()
	select {
	case <-readerDone:
		t.Fatal("reader overtook waiting writer")
	case <-time.After(20 * time.Millisecond):
	}
	lm.ReleaseAll(1)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(2)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(3)
}

func TestConcurrentStress(t *testing.T) {
	lm := NewLockManager()
	const workers = 16
	const iters = 200
	resources := []string{"q/a", "q/b", "q/c", "sl/x/1", "sl/x/2"}
	var counter int64
	var wg sync.WaitGroup
	var txnSeq atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := txnSeq.Add(1)
				res := resources[(seed+i)%len(resources)]
				err := lm.Acquire(id, res, X)
				if err == ErrDeadlock {
					lm.ReleaseAll(id)
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Critical section: exclusive access must hold.
				v := atomic.AddInt64(&counter, 1)
				if v > int64(len(resources)) {
					t.Errorf("more critical sections than resources: %d", v)
				}
				atomic.AddInt64(&counter, -1)
				lm.ReleaseAll(id)
			}
		}(w)
	}
	wg.Wait()
}

var nameSink string

// TestResourceAllocs: naming a lock costs one allocation, for a slice lock
// and a queue lock alike.
func TestResourceAllocs(t *testing.T) {
	slicing, key, queue := "byKey", "k1", "in"
	for _, c := range []struct {
		want string
		name func() string
	}{
		{"sl/byKey/k1", func() string { return Resource("sl", slicing, key) }},
		{"q/in", func() string { return Resource("q", queue) }},
	} {
		if got := c.name(); got != c.want {
			t.Fatalf("Resource = %q, want %q", got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { nameSink = c.name() }); n != 1 {
			t.Errorf("naming %s costs %v allocations, want 1", c.want, n)
		}
	}
}

// BenchmarkReleaseAll acquires and releases one transaction's four locks
// beside others that hold n locks of their own. Release visits only the
// transaction's locks, so the cost is flat in n.
func BenchmarkReleaseAll(b *testing.B) {
	for _, n := range []int{0, 1000} {
		b.Run(fmt.Sprintf("held=%d", n), func(b *testing.B) {
			lm := NewLockManager()
			for i := 0; i < n; i++ {
				if err := lm.Acquire(uint64(1+i%10), Resource("m", strconv.Itoa(i)), X); err != nil {
					b.Fatal(err)
				}
			}
			own := []string{"q/in", "sl/byKey/k1", "m/a", "m/b"}
			txn := uint64(n + 100)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, res := range own {
					if err := lm.Acquire(txn, res, X); err != nil {
						b.Fatal(err)
					}
				}
				lm.ReleaseAll(txn)
			}
		})
	}
}
