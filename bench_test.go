package demaq

// Paper comparisons: one benchmark per optimisation choice the paper names
// and the product therefore keeps selectable. The paper (CIDR 2007)
// publishes no quantitative tables; these benchmarks quantify its
// performance *claims* — E1 materialised slices (Sec. 4.3,
// Options.NoMaterializedSlices), E2 slice- vs queue-granularity locking
// (Sec. 4.3, Options.CoarseLocking), E3 unlogged retention deletes (Sec.
// 4.1, store.Options.UnloggedDeletes), E4 rule-plan dispatch and view
// merging (Sec. 4.4.1, Options.NoRuleOptimizations; both sides run compiled
// bodies, which internal/xquery's BenchmarkEvalBackends compares with the
// reference interpreter), E6 state-as-messages vs a dehydration store
// (Sec. 2.1, baseline_test.go) — plus A3, the commit durability policy
// (Options.NoSync). Everything else is measured end to end by bench/ (see
// bench/README.md).

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/rule"
	"demaq/internal/slicing"
	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// --- E1: materialized slices vs merged slice queries (Sec. 4.3) ---

// setupSliceBench fills one queue with nMsgs messages spread over nSlices
// slices. materialized reads a slice as a range of the store's property
// B-tree; without it the store keeps no index and each access re-runs the
// slice definition as a queue scan.
func setupSliceBench(b *testing.B, nMsgs, nSlices int, materialized bool) *slicing.Manager {
	b.Helper()
	opts := msgstore.DefaultOptions()
	opts.Store.SyncCommits = false
	opts.NoPropertyIndex = !materialized
	ms, err := msgstore.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ms.Close() })
	sm := slicing.NewManager(ms, &rule.Graph{
		SlicingProps: map[string]string{"byK": "k"},
		Queues:       map[string]rule.QueueNode{"q": {Joins: []string{"byK"}}},
	})
	ms.CreateQueue("q", msgstore.Persistent, 0)
	tx := ms.Begin()
	for i := 0; i < nMsgs; i++ {
		key := fmt.Sprintf("s%d", i%nSlices)
		doc := xmldom.MustParse(fmt.Sprintf(`<m><k>%s</k><data>payload %d</data></m>`, key, i))
		pv := map[string]xdm.Value{"k": xdm.NewString(key)}
		if err := tx.Enqueue("q", doc, pv, time.Now()); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return sm
}

func BenchmarkE1SliceAccess(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		for _, mat := range []bool{true, false} {
			name := fmt.Sprintf("msgs=%d/materialized=%v", n, mat)
			b.Run(name, func(b *testing.B) {
				sm := setupSliceBench(b, n, n/10, mat)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					members := sm.SliceMembers("byK", fmt.Sprintf("s%d", i%(n/10)))
					if len(members) != 10 {
						b.Fatalf("slice size %d", len(members))
					}
				}
			})
		}
	}
}

// --- E2: slice- vs queue-granularity locking (Sec. 4.3) ---

func BenchmarkE2LockGranularity(b *testing.B) {
	app := `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create property k as xs:string fixed queue in value //k;
		create slicing byK on k;
		create rule check for byK
		  if (qs:slice()[/m] and not(qs:slice()[/never])) then ();
		create rule fwd for in
		  if (//m) then do enqueue <done/> into out;
	`
	for _, coarse := range []bool{false, true} {
		name := "slice"
		if coarse {
			name = "queue"
		}
		b.Run("locking="+name, func(b *testing.B) {
			srv, err := Open(b.TempDir(), app, &Options{
				Workers: 8, CoarseLocking: coarse, NoSync: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			srv.Start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Enqueue("in", fmt.Sprintf(`<m><k>k%d</k></m>`, i%64), nil)
			}
			if !srv.Drain(120 * time.Second) {
				b.Fatal("drain")
			}
			// What the coarse names cost, counted: requests that queued
			// behind another transaction. The app has one slicing and no
			// cross-queue read, so it cannot deadlock;
			// internal/engine's TestDeadlockExhaustionRequeues tests that cost.
			b.ReportMetric(float64(srv.Stats().LockWaits)/float64(b.N), "lockwaits/op")
		})
	}
}

// --- E3: append-only logging and unlogged retention deletes (Sec. 4.1) ---

func BenchmarkE3LoggingRecovery(b *testing.B) {
	payload := []byte(fmt.Sprintf("<m>%s</m>", strings.Repeat("x", 900)))
	for _, unlogged := range []bool{true, false} {
		name := "deletes=unlogged"
		if !unlogged {
			name = "deletes=logged"
		}
		b.Run(name, func(b *testing.B) {
			opts := store.DefaultOptions()
			opts.SyncCommits = false
			opts.UnloggedDeletes = unlogged
			s, err := store.Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h, _ := s.CreateHeap("q")
			rids := make([]store.RID, 0, b.N)
			tx := s.Begin()
			for i := 0; i < b.N; i++ {
				rid, err := tx.Insert(h, payload)
				if err != nil {
					b.Fatal(err)
				}
				rids = append(rids, rid)
			}
			tx.Commit()
			before := s.Stats().LogBytes
			b.ResetTimer()
			if err := s.BatchDelete(h, rids); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.Stats().LogBytes-before)/float64(b.N), "logB/op")
		})
	}
}

func BenchmarkE3Recovery(b *testing.B) {
	// Time to reopen, cleanly, a message store holding a history of 20 000
	// 2 KB messages with one indexed property: the restart pass that
	// rebuilds the queues and the property index from the heaps. The
	// layouts: one queue written 500 messages per transaction, whose pages
	// are contiguous; two queues written by concurrent writers that also
	// mark each message processed, as the engine's ingest does, whose
	// payload and status pages interleave; and a queue whose first half was
	// collected by retention before the second half was written, so that
	// its chain runs through reused pages and links back to lower ones.
	lines := strings.Repeat(`<line sku="item">2 units at 10.00</line>`, 48)
	enqueue := func(tx *msgstore.Txn, queue string, i int) error {
		doc := xmldom.MustParse(fmt.Sprintf(`<invoice id="%d">%s</invoice>`, i, lines))
		props := map[string]xdm.Value{"customer": xdm.NewString(fmt.Sprintf("c%d", i%200))}
		return tx.Enqueue(queue, doc, props, time.Now())
	}
	batched := func(b *testing.B, ms *msgstore.Store, from, to int) {
		for i := from; i < to; {
			tx := ms.Begin()
			for end := min(i+500, to); i < end; i++ {
				if err := enqueue(tx, "invoices", i); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	reopen := func(name string, queues []string, fill func(b *testing.B, ms *msgstore.Store)) {
		b.Run(name, func(b *testing.B) {
			dir := b.TempDir()
			opts := msgstore.DefaultOptions()
			opts.Store.SyncCommits = false
			ms, err := msgstore.Open(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range queues {
				if _, err := ms.CreateQueue(q, msgstore.Persistent, 0); err != nil {
					b.Fatal(err)
				}
			}
			fill(b, ms)
			if err := ms.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := msgstore.Open(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				ms.Close()
				b.StartTimer()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
	reopen("msgstore-reopen/msgs=20000", []string{"invoices"}, func(b *testing.B, ms *msgstore.Store) {
		batched(b, ms, 0, 20000)
	})
	reopen("msgstore-reopen-interleaved/msgs=20000", []string{"invoices", "checks"}, func(b *testing.B, ms *msgstore.Store) {
		write := func(i int) error {
			tx := ms.Begin()
			if err := enqueue(tx, []string{"invoices", "checks"}[i%2], i); err != nil {
				return err
			}
			out, err := tx.Commit()
			if err != nil {
				return err
			}
			tx = ms.Begin()
			if err := tx.MarkProcessed(out[0].ID); err != nil {
				return err
			}
			_, err = tx.Commit()
			return err
		}
		const writers = 8
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < 20000; i += writers {
					if err := write(i); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
	reopen("msgstore-reopen-reused/msgs=20000", []string{"invoices"}, func(b *testing.B, ms *msgstore.Store) {
		batched(b, ms, 0, 20000)
		msgs, _ := ms.Messages("invoices")
		ids := make([]msgstore.MsgID, 0, 10000)
		for _, m := range msgs[500:10500] {
			ids = append(ids, m.ID)
		}
		tx := ms.Begin()
		if err := tx.MarkProcessedAll(ids); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		p := ms.BeginCollect()
		if _, err := p.Remove("invoices", ids); err != nil {
			b.Fatal(err)
		}
		if err := p.Commit(); err != nil {
			b.Fatal(err)
		}
		batched(b, ms, 20000, 30000)
	})
	// Time to recover a store with N committed messages after a crash.
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("msgs=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				opts := store.DefaultOptions()
				opts.SyncCommits = false
				s, _ := store.Open(dir, opts)
				h, _ := s.CreateHeap("q")
				tx := s.Begin()
				for j := 0; j < n; j++ {
					tx.Insert(h, []byte("<m>recovery payload</m>"))
				}
				tx.Commit()
				s.CrashForTest()
				b.StartTimer()
				s2, err := store.Open(dir, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s2.Close()
			}
		})
	}
}

// --- E4: rule compiler condition dispatch (Sec. 4.4.1) ---

func BenchmarkE4RuleCompiler(b *testing.B) {
	mkApp := func(nRules int) string {
		app := "create queue in kind basic mode persistent;\ncreate queue out kind basic mode persistent;\n"
		for i := 0; i < nRules; i++ {
			app += fmt.Sprintf(
				"create rule r%d for in if (//type%d) then do enqueue <hit n=\"%d\"/> into out;\n", i, i, i)
		}
		return app
	}
	for _, nRules := range []int{4, 16, 64} {
		for _, optimized := range []bool{true, false} {
			name := fmt.Sprintf("rules=%d/dispatch=%v", nRules, optimized)
			b.Run(name, func(b *testing.B) {
				srv, err := Open(b.TempDir(), mkApp(nRules), &Options{
					Workers: 2, NoSync: true, NoRuleOptimizations: !optimized,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				srv.Start()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv.Enqueue("in", fmt.Sprintf(`<type%d>x</type%d>`, i%nRules, i%nRules), nil)
				}
				if !srv.Drain(120 * time.Second) {
					b.Fatal("drain")
				}
			})
		}
	}
}

// --- E6: state-as-messages vs dehydration store (Sec. 2.1) ---

func BenchmarkE6StateModel(b *testing.B) {
	const eventsPerInstance = 20
	b.Run("demaq-messages", func(b *testing.B) {
		srv, err := Open(b.TempDir(), `
			create queue events kind basic mode persistent;
			create property inst as xs:string fixed queue events value //inst;
			create slicing byInst on inst;
		`, &Options{Workers: 4, NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		srv.Start()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst := (i / eventsPerInstance) % 1000
			srv.Enqueue("events", fmt.Sprintf(`<event><inst>i%d</inst><data>payload</data></event>`, inst), nil)
		}
		srv.Drain(120 * time.Second)
	})
	b.Run("dehydration-store", func(b *testing.B) {
		opts := store.DefaultOptions()
		opts.SyncCommits = false
		eng, err := openContextEngine(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		ev := xmldom.MustParse(`<event><data>payload</data></event>`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inst := fmt.Sprintf("i%d", (i/eventsPerInstance)%1000)
			if err := eng.HandleEvent(inst, ev); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- A3: commit durability policy ablation ---

func BenchmarkA3CommitPolicy(b *testing.B) {
	for _, sync := range []bool{true, false} {
		name := "fsync=on"
		if !sync {
			name = "fsync=off"
		}
		b.Run(name, func(b *testing.B) {
			opts := store.DefaultOptions()
			opts.SyncCommits = sync
			s, err := store.Open(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			h, _ := s.CreateHeap("q")
			payload := []byte("<m>committed message</m>")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				if _, err := tx.Insert(h, payload); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
