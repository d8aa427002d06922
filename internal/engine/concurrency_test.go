package engine

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// The concurrent-commit stress application: persistent and transient
// queues, a rule fanning every input message out to both, so worker
// transactions (enqueue + mark-processed) commit concurrently with
// external Enqueue transactions.
const concurrentApp = `
create queue in kind basic mode persistent;
create queue flood kind basic mode transient;
create queue archive kind basic mode persistent;
create rule fanout for in
  if (//job) then (
    do enqueue <copy>{//job/text()}</copy> into flood,
    do enqueue <kept>{//job/text()}</kept> into archive
  );
`

// TestConcurrentEnqueueAndProcessing drives the full pipeline under -race:
// several producers enqueue while the worker pool processes, exercising
// the three-phase msgstore commit, the group-commit WAL path and the
// priority scheduler concurrently.
func TestConcurrentEnqueueAndProcessing(t *testing.T) {
	e := newEngine(t, concurrentApp, func(c *Config) { c.Workers = 8 })
	const producers, perProducer = 6, 40
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if _, err := e.EnqueueXML("in", fmt.Sprintf(`<job>%d-%d</job>`, p, i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	drain(t, e)

	const total = producers * perProducer
	for _, q := range []string{"flood", "archive"} {
		msgs, err := e.MessageStore().Messages(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != total {
			t.Fatalf("queue %s: %d messages, want %d", q, len(msgs), total)
		}
		for i := 1; i < len(msgs); i++ {
			if msgs[i-1].ID >= msgs[i].ID {
				t.Fatalf("queue %s out of ID order at %d", q, i)
			}
		}
	}
	in, _ := e.MessageStore().Messages("in")
	for _, m := range in {
		if !m.Processed {
			t.Fatalf("message %d not processed", m.ID)
		}
	}
	st := e.Stats()
	if st.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", st)
	}
	if st.Processed < total {
		t.Fatalf("processed %d, want >= %d", st.Processed, total)
	}

	// The commit pipeline must have allowed fsync coalescing: with 8
	// workers and 6 producers the WAL cannot have synced once per commit.
	ps := e.MessageStore().PageStore().Stats()
	if ps.WALFsyncs > ps.Commits {
		t.Fatalf("fsyncs %d > commits %d", ps.WALFsyncs, ps.Commits)
	}
	if ps.WALCoalesced == 0 {
		t.Logf("warning: no coalesced commits observed (fsyncs=%d commits=%d)", ps.WALFsyncs, ps.Commits)
	}
}

// TestConcurrentProcessingSurvivesRestart crashes mid-stream and verifies
// exactly-once semantics across recovery with a concurrent workload.
func TestConcurrentProcessingSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	app := concurrentApp
	e := newEngineInDir(t, app, dir)
	const total = 60
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < total/3; i++ {
				if _, err := e.EnqueueXML("in", fmt.Sprintf(`<job>%d-%d</job>`, p, i), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	drain(t, e)
	e.MessageStore().PageStore().CrashForTest()

	e2 := newEngineInDir(t, app, dir)
	if !e2.Drain(10 * time.Second) {
		t.Fatal("restarted engine did not drain")
	}
	arch, _ := e2.MessageStore().Messages("archive")
	if len(arch) != total {
		t.Fatalf("archive after restart: %d, want %d", len(arch), total)
	}
	in, _ := e2.MessageStore().Messages("in")
	if len(in) != total {
		t.Fatalf("in after restart: %d, want %d", len(in), total)
	}
	for _, m := range in {
		if !m.Processed {
			t.Fatalf("message %d lost its processed flag", m.ID)
		}
	}
}

func newEngineInDir(t *testing.T, src, dir string) *Engine {
	t.Helper()
	return newEngine(t, src, func(c *Config) {
		c.Dir = dir
		c.Workers = 8
	})
}
