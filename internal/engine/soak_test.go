package engine

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demaq/internal/qdl"
)

// TestSoakSustainedLoad is the sustained-load soak harness: 8 workers
// process a mixed workload (concurrent producers, rule-driven enqueues,
// retention GC, background fuzzy checkpoints) under a deliberately small
// WAL budget, so throttling, shedding and head advancement all engage. The
// run is time-bounded: a couple of seconds by default (the per-PR variant),
// or DEMAQ_SOAK (a Go duration, e.g. "10m") for the nightly job. It is
// meant to run under -race.
//
// Invariants checked while the load is on and afterwards:
//   - the engine never degrades and nothing panics;
//   - the live WAL stays within a small multiple of the hard budget —
//     sustained overload produces throttling and 429 shedding, never
//     unbounded log growth;
//   - checkpoints complete throughout the run;
//   - after a graceful shutdown the store verifies and reopens with zero
//     records to replay.
func TestSoakSustainedLoad(t *testing.T) {
	dur := 2 * time.Second
	if v := os.Getenv("DEMAQ_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("DEMAQ_SOAK: %v", err)
		}
		dur = d
	} else if testing.Short() {
		dur = time.Second
	}

	app, err := qdl.Parse(`
		create queue in  kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule forward for in
		  if (//m) then do enqueue <done>{//m/text()}</done> into out;
	`)
	if err != nil {
		t.Fatal(err)
	}
	const (
		soft = int64(64 << 10)
		hard = int64(256 << 10)
	)
	dir := t.TempDir()
	e, err := New(Config{
		Dir:                dir,
		Workers:            8,
		Store:              budgetedOptions(soft, hard),
		GCInterval:         100 * time.Millisecond,
		CheckpointInterval: 100 * time.Millisecond,
	}, app)
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	deadline := time.Now().Add(dur)
	var produced, shed atomic.Uint64
	var fail atomic.Value
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			i := 0
			for time.Now().Before(deadline) {
				i++
				_, err := e.EnqueueXML("in", fmt.Sprintf("<m>p%d-%d</m>", p, i), nil)
				switch {
				case err == nil:
					produced.Add(1)
				case errors.Is(err, ErrOverloaded):
					// Backpressure working as intended: retry after a beat.
					shed.Add(1)
					time.Sleep(time.Millisecond)
				default:
					fail.Store(fmt.Errorf("producer %d: %w", p, err))
					return
				}
			}
		}(p)
	}

	// Monitor: the live WAL must stay within a small multiple of the hard
	// budget. Internal rule-driven enqueues bypass admission (only their
	// commits are throttled), so transient overshoot is expected — but not
	// unbounded growth.
	var peakLive uint64
	for time.Now().Before(deadline) {
		st := e.Stats()
		if st.Store.WALLiveBytes > peakLive {
			peakLive = st.Store.WALLiveBytes
		}
		if st.Degraded {
			t.Fatalf("engine degraded mid-soak: %s", st.StorageError)
		}
		if st.Store.WALLiveBytes > uint64(4*hard) {
			t.Fatalf("live WAL grew unbounded under load: %d bytes (hard budget %d)", st.Store.WALLiveBytes, hard)
		}
		time.Sleep(20 * time.Millisecond)
	}
	wg.Wait()
	if err, _ := fail.Load().(error); err != nil {
		t.Fatal(err)
	}

	checkpoints := e.Stats().Store.Checkpoints
	drained, err := e.Shutdown(60 * time.Second)
	if err != nil {
		t.Fatalf("shutdown after soak: %v", err)
	}
	if !drained {
		t.Fatal("soak backlog did not drain within the shutdown budget")
	}
	if checkpoints == 0 {
		t.Fatal("no fuzzy checkpoint completed during the soak")
	}

	// Reopen: verify integrity, processed counts, and the clean-shutdown
	// zero-replay contract.
	e2, err := New(Config{Dir: dir, Workers: 1}, app)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	st := e2.Stats()
	if st.Store.RecoveryRecordsReplayed != 0 {
		t.Fatalf("clean shutdown after soak: reopened engine replayed %d records", st.Store.RecoveryRecordsReplayed)
	}
	if err := e2.MessageStore().VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after soak: %v", err)
	}
	// Retention GC ran throughout, so most results are already collected;
	// what remains must be free of duplicates (each admitted message was
	// processed at most once).
	outDocs, err := e2.MessageStore().QueueDocs("out")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range outDocs {
		key := d.StringValue()
		if seen[key] {
			t.Fatalf("duplicate result %q after soak", key)
		}
		seen[key] = true
	}
	t.Logf("soak %s: produced=%d shed=%d peak-live=%dKiB checkpoints=%d",
		dur, produced.Load(), shed.Load(), peakLive>>10, checkpoints)
}
