package engine

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/xmldom"
)

// --- scheduler batch claiming ---

func TestSchedulerClaimBatchHalfOfBacklog(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("q", 0)
	for i := 1; i <= 8; i++ {
		s.Add("q", msgstore.MsgID(i))
	}
	// A claim takes at most half the backlog (rounded up): 8 → 4 → 2 → 1 → 1.
	want := [][]msgstore.MsgID{{1, 2, 3, 4}, {5, 6}, {7}, {8}}
	for _, ids := range want {
		queue, prio, got, ok := s.ClaimBatch(32, nil)
		if !ok || queue != "q" || prio != 0 {
			t.Fatalf("claim = (%s,%d,%v)", queue, prio, ok)
		}
		if len(got) != len(ids) {
			t.Fatalf("batch %v, want %v", got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("batch %v, want %v", got, ids)
			}
		}
		s.DoneN(len(got))
	}
	if !s.Idle() {
		t.Fatal("should be idle")
	}
}

func TestSchedulerClaimBatchRespectsMax(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("q", 0)
	for i := 1; i <= 100; i++ {
		s.Add("q", msgstore.MsgID(i))
	}
	_, _, ids, _ := s.ClaimBatch(16, nil)
	if len(ids) != 16 {
		t.Fatalf("claimed %d, want 16", len(ids))
	}
	if s.Backlog() != 84 {
		t.Fatalf("backlog %d", s.Backlog())
	}
	s.DoneN(len(ids))
}

func TestSchedulerClaimBatchSingleQueueAndPriority(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("low", 1)
	s.DeclareQueue("high", 10)
	s.Add("low", 1)
	s.Add("low", 2)
	s.Add("high", 3)
	s.Add("high", 4)
	queue, prio, ids, _ := s.ClaimBatch(32, nil)
	if queue != "high" || prio != 10 || len(ids) != 1 || ids[0] != 3 {
		t.Fatalf("first batch (%s,%d,%v)", queue, prio, ids)
	}
	s.DoneN(1)
	queue, _, ids, _ = s.ClaimBatch(32, nil)
	if queue != "high" || len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("second batch (%s,%v)", queue, ids)
	}
	s.DoneN(1)
	queue, _, ids, _ = s.ClaimBatch(32, nil)
	if queue != "low" || len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("third batch (%s,%v)", queue, ids)
	}
	s.DoneN(1)
}

func TestSchedulerRequeueFrontPreservesOrder(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("q", 0)
	for i := 1; i <= 8; i++ {
		s.Add("q", msgstore.MsgID(i))
	}
	_, _, ids, _ := s.ClaimBatch(32, nil) // {1,2,3,4}
	// Preempted after one message: give back the suffix in order.
	s.RequeueFront("q", ids[1:])
	s.DoneN(1)
	_, _, ids, _ = s.ClaimBatch(32, nil)
	// Backlog is {2,3,4,5,6,7,8}: half of 7 is 4.
	want := []msgstore.MsgID{2, 3, 4, 5}
	if len(ids) != len(want) {
		t.Fatalf("batch %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("batch %v, want %v", ids, want)
		}
	}
	s.DoneN(len(ids))
}

func TestSchedulerPreemptFor(t *testing.T) {
	s := newScheduler()
	s.DeclareQueue("low", 1)
	s.DeclareQueue("high", 10)
	s.Add("low", 1)
	if s.PreemptFor(1) {
		t.Fatal("own priority level must not preempt")
	}
	_, _, ids, _ := s.ClaimBatch(32, nil)
	if s.PreemptFor(1) {
		t.Fatal("empty scheduler must not preempt")
	}
	s.Add("high", 2)
	if !s.PreemptFor(1) {
		t.Fatal("higher-priority arrival must preempt a low batch")
	}
	if s.PreemptFor(10) {
		t.Fatal("equal priority must not preempt")
	}
	s.DoneN(len(ids))
}

// --- batch/single differential: identical final state ---

// pipelineDiffApp is the E7 pipeline plus two error-injecting rules, each
// with an error queue of its own: orders carrying <poison/> or <bad/> fail
// rule evaluation and must land in their rule's error queue — not in the
// inbox's — with no pipeline output, identically at every batch size.
const pipelineDiffApp = `
	create queue inbox kind basic mode persistent errorqueue inboxErrs;
	create queue stage1 kind basic mode persistent;
	create queue stage2 kind basic mode persistent;
	create queue outbox kind basic mode persistent;
	create queue errs kind basic mode persistent;
	create queue badErrs kind basic mode persistent;
	create queue inboxErrs kind basic mode persistent;
	create rule s0 for inbox if (//order) then
	  do enqueue <checked>{//order/id}</checked> into stage1;
	create rule poison for inbox errorqueue errs
	  if (//order/poison) then do enqueue <x>{1 idiv 0}</x> into outbox;
	create rule bad for inbox errorqueue badErrs
	  if (//order/bad) then do enqueue <x>{1 idiv 0}</x> into outbox;
	create rule s1 for stage1 if (//checked) then
	  do enqueue <priced>{//checked/id}</priced> into stage2;
	create rule s2 for stage2 if (//priced) then
	  do enqueue <done>{//priced/id}</done> into outbox;
`

// queueFingerprint summarizes a queue's final state order-insensitively:
// the sorted multiset of (document, processed flag, properties minus
// wall-clock timestamps). Message IDs and enqueue times differ between
// runs by construction and are excluded.
func queueFingerprint(t *testing.T, e *Engine, queue string) []string {
	t.Helper()
	msgs, err := e.MessageStore().Messages(queue)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(msgs))
	for _, m := range msgs {
		doc, err := e.MessageStore().Doc(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		var props []string
		for k, v := range m.Props {
			if k == "demaq:created" {
				continue
			}
			props = append(props, k+"="+v.StringValue())
		}
		sort.Strings(props)
		out = append(out, fmt.Sprintf("processed=%v props=[%s] doc=%s",
			m.Processed, strings.Join(props, ","), xmldom.Serialize(doc)))
	}
	sort.Strings(out)
	return out
}

func runPipelineDiff(t *testing.T, batchSize, n int) (map[string][]string, Stats) {
	t.Helper()
	app := qdl.MustParse(pipelineDiffApp)
	cfg := Config{Dir: t.TempDir(), Workers: 8, BatchSize: batchSize}
	cfg.Store = msgstore.DefaultOptions()
	cfg.Store.Store.SyncCommits = false
	e, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	e.Start()
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`<order><id>%d</id></order>`, i)
		switch i % 6 {
		case 5:
			doc = fmt.Sprintf(`<order><id>%d</id><poison/></order>`, i)
		case 2:
			doc = fmt.Sprintf(`<order><id>%d</id><bad/></order>`, i)
		}
		if _, err := e.EnqueueXML("inbox", doc, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !e.Drain(60 * time.Second) {
		t.Fatal("drain")
	}
	state := map[string][]string{}
	for _, q := range e.MessageStore().QueueNames() {
		state[q] = queueFingerprint(t, e, q)
	}
	return state, e.Stats()
}

// TestBatchSingleDifferential runs the same workload in batches of one
// (BatchSize 1) and set-oriented (BatchSize 32) and asserts identical
// final store state, error-queue contents and processed counts. Runs
// under -race in CI.
func TestBatchSingleDifferential(t *testing.T) {
	const n = 240
	single, singleStats := runPipelineDiff(t, 1, n)
	batch, batchStats := runPipelineDiff(t, 32, n)

	if len(single) != len(batch) {
		t.Fatalf("queue sets differ: %d vs %d", len(single), len(batch))
	}
	for q, want := range single {
		got, ok := batch[q]
		if !ok {
			t.Fatalf("queue %q missing in batch run", q)
		}
		if len(got) != len(want) {
			t.Fatalf("queue %q: %d messages batched vs %d single", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("queue %q message %d differs:\n  single: %s\n  batch:  %s", q, i, want[i], got[i])
			}
		}
	}
	if singleStats.Processed != batchStats.Processed {
		t.Errorf("processed: single %d, batch %d", singleStats.Processed, batchStats.Processed)
	}
	if singleStats.Errors != batchStats.Errors {
		t.Errorf("errors: single %d, batch %d", singleStats.Errors, batchStats.Errors)
	}
	if singleStats.Enqueued != batchStats.Enqueued {
		t.Errorf("enqueued: single %d, batch %d", singleStats.Enqueued, batchStats.Enqueued)
	}
	if want := uint64(2 * n / 6); singleStats.Errors != want {
		t.Errorf("rule errors: %d, want %d", singleStats.Errors, want)
	}
	// The error message names the failing rule, lands in that rule's error
	// queue and embeds the complete triggering document.
	for name, state := range map[string]map[string][]string{"single": single, "batch": batch} {
		for queue, marker := range map[string]string{"errs": "poison", "badErrs": "bad"} {
			if got := len(state[queue]); got != n/6 {
				t.Errorf("%s: %s holds %d error messages, want %d", name, queue, got, n/6)
			}
			for _, m := range state[queue] {
				if !strings.Contains(m, "<rule>"+marker+"</rule>") || !strings.Contains(m, "<"+marker+"/></order></initialMessage>") {
					t.Errorf("%s: error message in %s does not name rule %s or embed its order: %s", name, queue, marker, m)
				}
			}
		}
		if got := len(state["inboxErrs"]); got != 0 {
			t.Errorf("%s: %d rule errors fell back to the queue's error queue", name, got)
		}
	}
	if batchStats.BatchesClaimed == 0 || batchStats.AvgBatchSize <= 1 {
		t.Errorf("batch run did not batch: %d claims, avg %.2f",
			batchStats.BatchesClaimed, batchStats.AvgBatchSize)
	}
}

// TestBatchSharedStateEquivalence replays the slice-join pattern — the
// worst case for set-oriented execution, where a rule's firing depends on
// updates of neighboring messages — across batch sizes and lock
// granularities: exactly one join output per key, however the inputs are
// grouped into batches.
func TestBatchSharedStateEquivalence(t *testing.T) {
	const app = `
		create queue in kind basic mode persistent;
		create queue joined kind basic mode persistent;
		create property key as xs:string fixed queue in value //key;
		create slicing byKey on key;
		create rule join for byKey
		  if (count(qs:slice()[/part]) >= 3) then
		    do enqueue <both><key>{qs:slicekey()}</key></both> into joined;
		create rule cleanup for byKey
		  if (count(qs:slice()[/part]) >= 3) then do reset;
	`
	for _, g := range granularities {
		for _, batch := range []int{1, 32} {
			t.Run(fmt.Sprintf("%s/batch=%d", g.name, batch), func(t *testing.T) {
				e := newEngine(t, app, func(c *Config) {
					c.Workers = 8
					c.BatchSize = batch
					c.Granularity = g.g
					c.Store = msgstore.DefaultOptions()
					c.Store.Store.SyncCommits = false
				})
				const keys, parts = 20, 3
				for p := 0; p < parts; p++ {
					for k := 0; k < keys; k++ {
						if _, err := e.EnqueueXML("in",
							fmt.Sprintf(`<part><key>k%d</key><n>%d</n></part>`, k, p), nil); err != nil {
							t.Fatal(err)
						}
					}
				}
				drain(t, e)
				joined, _ := e.MessageStore().Messages("joined")
				if len(joined) != keys {
					t.Fatalf("joined %d messages, want exactly %d (duplicate or missed joins)", len(joined), keys)
				}
			})
		}
	}
}

// granularities are the lock granularities the tests that run under both
// take as an input.
var granularities = []struct {
	name string
	g    LockGranularity
}{{"locking=slice", LockSlice}, {"locking=queue", LockQueue}}

// TestDeadlockExhaustionRequeues drives a workload whose transactions
// deadlock by construction (coarse queue locks plus symmetric cross-queue
// reads) with a minimal retry budget. Exhausting the budget must requeue
// the victim — counted in DeadlockRequeues — never route it to an error
// queue, and every message must still be processed exactly once.
func TestDeadlockExhaustionRequeues(t *testing.T) {
	e := newEngine(t, `
		create queue a kind basic mode persistent;
		create queue b kind basic mode persistent;
		create queue outA kind basic mode persistent;
		create queue outB kind basic mode persistent;
		create rule ra for a if (count(qs:queue("b")) >= 0) then do enqueue <x/> into outA;
		create rule rb for b if (count(qs:queue("a")) >= 0) then do enqueue <y/> into outB;
	`, func(c *Config) {
		c.Workers = 8
		c.Granularity = LockQueue
		c.MaxRetries = 1
		c.Store = msgstore.DefaultOptions()
		c.Store.Store.SyncCommits = false
	})
	const n = 120
	for i := 0; i < n; i++ {
		if _, err := e.EnqueueXML("a", `<m/>`, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.EnqueueXML("b", `<m/>`, nil); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, e)
	st := e.Stats()
	if st.Errors != 0 {
		t.Fatalf("deadlock exhaustion reached an error queue: %+v", st)
	}
	outA, _ := e.MessageStore().Messages("outA")
	outB, _ := e.MessageStore().Messages("outB")
	if len(outA) != n || len(outB) != n {
		t.Fatalf("outputs %d/%d, want %d/%d", len(outA), len(outB), n, n)
	}
	if st.Deadlocks > 0 {
		t.Logf("deadlocks=%d requeues=%d", st.Deadlocks, st.DeadlockRequeues)
	}
}

// --- shared-state messages in batches ---

// runPreloaded enqueues msgs — queue and document pairs, in order — into a
// new engine before it starts, runs it to completion and returns every
// queue's fingerprint. With one worker the first claim takes the first half
// of the backlog, so at BatchSize > 1 the leading messages share a claim.
func runPreloaded(t *testing.T, app string, g LockGranularity, batch, workers int, setup func(*Engine), msgs ...[2]string) (map[string][]string, Stats) {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), Workers: workers, BatchSize: batch, Granularity: g}
	cfg.Store = msgstore.DefaultOptions()
	cfg.Store.Store.SyncCommits = false
	e, err := New(cfg, qdl.MustParse(app))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if setup != nil {
		setup(e)
	}
	for _, m := range msgs {
		if _, err := e.EnqueueXML(m[0], m[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	e.Start()
	if !e.Drain(60 * time.Second) {
		t.Fatal("drain")
	}
	state := map[string][]string{}
	for _, q := range e.MessageStore().QueueNames() {
		state[q] = queueFingerprint(t, e, q)
	}
	return state, e.Stats()
}

// sameState fails the test where two runs' queue fingerprints or counts
// differ.
func sameState(t *testing.T, want, got map[string][]string, wantStats, gotStats Stats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("queue sets differ: %d vs %d", len(got), len(want))
	}
	for q, wantMsgs := range want {
		if !slices.Equal(got[q], wantMsgs) {
			t.Errorf("queue %q differs:\n  batch-1: %q\n  batched: %q", q, wantMsgs, got[q])
		}
	}
	if gotStats.Processed != wantStats.Processed || gotStats.Enqueued != wantStats.Enqueued || gotStats.Errors != wantStats.Errors {
		t.Errorf("processed/enqueued/errors: batch-1 %d/%d/%d, batched %d/%d/%d",
			wantStats.Processed, wantStats.Enqueued, wantStats.Errors,
			gotStats.Processed, gotStats.Enqueued, gotStats.Errors)
	}
}

// conflictCase runs msgs with one worker at BatchSize 1 and 32, asserts
// equal final states, and returns the batch-1 state for the case's own
// check. The first two messages share the batched run's first claim; two
// fillers follow.
func conflictCase(t *testing.T, app string, first, second [2]string) map[string][]string {
	t.Helper()
	msgs := [][2]string{first, second, {"in", "<noop/>"}, {"in", "<noop/>"}}
	want, wantStats := runPreloaded(t, app, LockSlice, 1, 1, nil, msgs...)
	got, gotStats := runPreloaded(t, app, LockSlice, 32, 1, nil, msgs...)
	sameState(t, want, got, wantStats, gotStats)
	return want
}

// TestBatchConflictSliceReadAfterWrite (R1): a member enqueues a message
// into slice k, and a later member's slicing rule counts slice k. The
// count must see the new message, as in batch-1 order.
func TestBatchConflictSliceReadAfterWrite(t *testing.T) {
	state := conflictCase(t, `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create queue results kind basic mode persistent;
		create property key as xs:string fixed queue in, out value //key;
		create slicing byKey on key;
		create rule spawn for in if (/spawn) then do enqueue <item><key>k</key></item> into out;
		create rule tally for byKey if (/probe) then
		  do enqueue <seen>{count(qs:slice()[/item])}</seen> into results;
	`, [2]string{"in", "<spawn/>"}, [2]string{"in", "<probe><key>k</key></probe>"})
	if r := state["results"]; len(r) != 1 || !strings.Contains(r[0], "<seen>1</seen>") {
		t.Fatalf("results %q, want one <seen>1</seen>", r)
	}
}

// TestBatchConflictQueueReadAfterWrite (R2): a member enqueues into queue
// log, and a later member's rule counts qs:queue("log").
func TestBatchConflictQueueReadAfterWrite(t *testing.T) {
	state := conflictCase(t, `
		create queue in kind basic mode persistent;
		create queue log kind basic mode persistent;
		create queue results kind basic mode persistent;
		create rule put for in if (/put) then do enqueue <entry/> into log;
		create rule look for in if (/look) then
		  do enqueue <seen>{count(qs:queue("log"))}</seen> into results;
	`, [2]string{"in", "<put/>"}, [2]string{"in", "<look/>"})
	if r := state["results"]; len(r) != 1 || !strings.Contains(r[0], "<seen>1</seen>") {
		t.Fatalf("results %q, want one <seen>1</seen>", r)
	}
}

// TestBatchConflictComputedQueueRead (R2): a member enqueues into queue
// log, and a later member's rule counts the queue its document names,
// qs:queue($q). A computed argument reads every queue, so it meets the
// enqueue.
func TestBatchConflictComputedQueueRead(t *testing.T) {
	state := conflictCase(t, `
		create queue in kind basic mode persistent;
		create queue log kind basic mode persistent;
		create queue results kind basic mode persistent;
		create rule put for in if (/put) then do enqueue <entry/> into log;
		create rule look for in if (/look) then
		  let $q := string(/look/@queue)
		  return do enqueue <seen>{count(qs:queue($q))}</seen> into results;
	`, [2]string{"in", "<put/>"}, [2]string{"in", `<look queue="log"/>`})
	if r := state["results"]; len(r) != 1 || !strings.Contains(r[0], "<seen>1</seen>") {
		t.Fatalf("results %q, want one <seen>1</seen>", r)
	}
}

// TestBatchConflictWriteAfterReset (R3): a member resets slice k, and a
// later member that reads no shared state enqueues a message into k. The
// new message comes after the reset, so it stays in k and its slicing rule
// fires.
func TestBatchConflictWriteAfterReset(t *testing.T) {
	state := conflictCase(t, `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create queue results kind basic mode persistent;
		create property key as xs:string fixed queue out value //key;
		create slicing byKey on key;
		create rule clear for in if (/clear) then do reset byKey key "k";
		create rule spawn for in if (/spawn) then do enqueue <item><key>k</key></item> into out;
		create rule member for byKey if (/item) then do enqueue <member/> into results;
	`, [2]string{"in", "<clear/>"}, [2]string{"in", "<spawn/>"})
	if r := state["results"]; len(r) != 1 {
		t.Fatalf("results %q, want the new message's <member/>", r)
	}
}

// TestBatchConflictDismissedMember (R4): a member resets slice k, and a
// later member of k — dismissed by that reset — must not fire its slicing
// rule.
func TestBatchConflictDismissedMember(t *testing.T) {
	state := conflictCase(t, `
		create queue in kind basic mode persistent;
		create queue results kind basic mode persistent;
		create property key as xs:string fixed queue in value //key;
		create slicing byKey on key;
		create rule clear for in if (/clear) then do reset byKey key "k";
		create rule fire for byKey if (/probe) then do enqueue <fired/> into results;
	`, [2]string{"in", "<clear/>"}, [2]string{"in", "<probe><key>k</key></probe>"})
	if r := state["results"]; len(r) != 0 {
		t.Fatalf("results %q: a dismissed member fired its slicing rule", r)
	}
}

// historyApp is the history-lookup shape: each check joins its customer's
// slice of invoices and answers with their count and sum.
const historyApp = `
	create queue invoices kind basic mode persistent;
	create queue checks kind basic mode persistent;
	create queue out kind basic mode persistent;
	create property customerID as xs:string fixed
	  queue invoices, checks value //customerID;
	create slicing byCustomer on customerID;
	create rule answer for byCustomer
	  if (/creditCheck) then
	    do enqueue <creditResult>{/creditCheck/checkID}
	        <count>{count(qs:slice()[/invoice])}</count>
	        <sum>{sum(qs:slice()/invoice/amount)}</sum>
	      </creditResult> into out;
`

func creditCheck(id, customer int) [2]string {
	return [2]string{"checks", fmt.Sprintf("<creditCheck><checkID>%d</checkID><customerID>c%d</customerID></creditCheck>", id, customer)}
}

// TestSharedStateJoinsBatches: slicing-rule messages that conflict with
// nothing commit set-oriented. 64 checks of distinct customers take 7
// claims of one worker, and their 64 answers 7 more — not one transaction
// per check.
func TestSharedStateJoinsBatches(t *testing.T) {
	var msgs [][2]string
	for i := 0; i < 64; i++ {
		msgs = append(msgs, creditCheck(i, i))
	}
	state, st := runPreloaded(t, historyApp, LockSlice, 32, 1, nil, msgs...)
	if len(state["out"]) != 64 {
		t.Fatalf("%d answers, want 64", len(state["out"]))
	}
	if st.BatchesCommitted > 16 {
		t.Fatalf("%d worker transactions for 64 checks and their answers, want at most 16 (avg %.1f messages)",
			st.BatchesCommitted, st.AvgCommittedBatch)
	}
}

// TestSliceRuleBatchDifferential runs two of the paper's slice-rule
// applications at BatchSize 1 and 32 with 8 workers, everything enqueued
// before the start, under each lock granularity, and asserts identical final
// state: the procurement application with 50 unpaid invoices and the
// 70/10/10/10 request mix, and the history-lookup shape. Runs under -race in
// CI.
func TestSliceRuleBatchDifferential(t *testing.T) {
	for _, g := range granularities {
		t.Run(g.name, func(t *testing.T) {
			t.Run("procurement", func(t *testing.T) {
				const unpaid, requests = 50, 120
				var msgs [][2]string
				for i := 0; i < unpaid; i++ {
					msgs = append(msgs, [2]string{"invoices", fmt.Sprintf(
						`<invoice><requestID>inv%d</requestID><customerID>u%d</customerID><amount>%d</amount></invoice>`, i, i, 100+i)})
				}
				rng := rand.New(rand.NewPCG(1, 2))
				for i := 0; i < requests; i++ {
					msgs = append(msgs, [2]string{"crm", offerRequest(rng, i, unpaid)})
				}
				pricelist := func(e *Engine) {
					if err := e.MessageStore().AddToCollection("crm", xmldom.MustParse(`<pricelist><discount>3%</discount></pricelist>`)); err != nil {
						t.Fatal(err)
					}
				}
				want, wantStats := runPreloaded(t, qdl.ProcurementApp, g.g, 1, 8, pricelist, msgs...)
				got, gotStats := runPreloaded(t, qdl.ProcurementApp, g.g, 32, 8, pricelist, msgs...)
				sameState(t, want, got, wantStats, gotStats)
				if n := len(want["customer"]); n != requests {
					t.Fatalf("%d offers and refusals for %d requests", n, requests)
				}
			})
			t.Run("history-lookup", func(t *testing.T) {
				const customers, perCustomer, checks = 20, 5, 200
				var msgs [][2]string
				for k := 0; k < perCustomer; k++ {
					for c := 0; c < customers; c++ {
						msgs = append(msgs, [2]string{"invoices", fmt.Sprintf(
							"<invoice><customerID>c%d</customerID><amount>%d</amount></invoice>", c, 1+(c*7+k*13)%50)})
					}
				}
				rng := rand.New(rand.NewPCG(3, 4))
				for i := 0; i < checks; i++ {
					msgs = append(msgs, creditCheck(i, rng.IntN(customers)))
				}
				want, wantStats := runPreloaded(t, historyApp, g.g, 1, 8, nil, msgs...)
				got, gotStats := runPreloaded(t, historyApp, g.g, 32, 8, nil, msgs...)
				sameState(t, want, got, wantStats, gotStats)
				if n := len(want["out"]); n != checks {
					t.Fatalf("%d answers for %d checks", n, checks)
				}
			})
		})
	}
}

// TestSliceReadOncePerTransaction: a slicing rule that calls qs:slice()
// up to eight times per evaluation, as joinOrder does, reads its slice once
// per transaction. At BatchSize 1 that is one read per check, fetching the
// slice's documents once; batched, the checks of one customer in a batch
// share a read, and the final state is the batch-1 state.
func TestSliceReadOncePerTransaction(t *testing.T) {
	const app = `
		create queue invoices kind basic mode persistent;
		create queue checks kind basic mode persistent;
		create queue out kind basic mode persistent;
		create property customerID as xs:string fixed
		  queue invoices, checks value //customerID;
		create slicing byCustomer on customerID;
		create rule answer for byCustomer
		  if (/creditCheck) then
		    if (qs:slice()[/invoice] and not(qs:slice()[/blocked])) then
		      do enqueue <creditResult>{/creditCheck/checkID}
		          <count>{count(qs:slice()[/invoice])}</count>
		          <sum>{sum(qs:slice()/invoice/amount)}</sum>
		          <max>{max(qs:slice()/invoice/amount)}</max>
		          <min>{min(qs:slice()/invoice/amount)}</min>
		          <avg>{avg(qs:slice()/invoice/amount)}</avg>
		          <checks>{count(qs:slice()[/creditCheck])}</checks>
		        </creditResult> into out
		    else
		      do enqueue <noHistory>{/creditCheck/checkID}<n>{count(qs:slice())}</n></noHistory> into out;
	`
	// Customer c<customers> has no invoices: its checks take the else branch.
	const customers, perCustomer, checks = 10, 4, 120
	var msgs [][2]string
	sliceSize := map[int]int{}
	for k := 0; k < perCustomer; k++ {
		for c := 0; c < customers; c++ {
			msgs = append(msgs, [2]string{"invoices", fmt.Sprintf(
				"<invoice><customerID>c%d</customerID><amount>%d</amount></invoice>", c, 1+(c*7+k*13)%50)})
			sliceSize[c]++
		}
	}
	rng := rand.New(rand.NewPCG(5, 6))
	var checked []int
	for i := 0; i < checks; i++ {
		c := rng.IntN(customers + 1)
		msgs = append(msgs, creditCheck(i, c))
		checked = append(checked, c)
		sliceSize[c]++
	}
	wantDocs := 0
	for _, c := range checked {
		wantDocs += sliceSize[c]
	}
	for _, g := range granularities {
		t.Run(g.name, func(t *testing.T) {
			want, wantStats := runPreloaded(t, app, g.g, 1, 4, nil, msgs...)
			if wantStats.SliceReads != checks || wantStats.SliceDocsRead != uint64(wantDocs) {
				t.Fatalf("batch-1: %d slice reads fetching %d documents, want one per check: %d fetching %d",
					wantStats.SliceReads, wantStats.SliceDocsRead, checks, wantDocs)
			}
			got, gotStats := runPreloaded(t, app, g.g, 32, 4, nil, msgs...)
			sameState(t, want, got, wantStats, gotStats)
			if n := len(want["out"]); n != checks {
				t.Fatalf("%d answers for %d checks", n, checks)
			}
			if r := gotStats.SliceReads; r < customers+1 || r >= checks {
				t.Fatalf("batched: %d slice reads for %d checks of %d customers, want fewer than one per check", r, checks, customers+1)
			}
		})
	}
}

// offerRequest draws one procurement request from the 70/10/10/10 mix:
// accepted, a restricted item (legal refuses), a customer with an unpaid
// invoice (finance refuses), over capacity (the supplier refuses).
func offerRequest(rng *rand.Rand, id, unpaid int) string {
	customer := fmt.Sprintf("c%d", rng.IntN(10000))
	restricted, over := -1, false
	nItems := 1 + rng.IntN(3)
	switch rng.IntN(10) {
	case 7:
		restricted = rng.IntN(nItems)
	case 8:
		customer = fmt.Sprintf("u%d", rng.IntN(unpaid))
	case 9:
		over = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<offerRequest><requestID>r%d</requestID><customerID>%s</customerID><items>", id, customer)
	for i := 0; i < nItems; i++ {
		qty := 1 + rng.IntN(200)
		if over && i == 0 {
			qty = 1000 + rng.IntN(9000)
		}
		yn := "no"
		if i == restricted {
			yn = "yes"
		}
		fmt.Fprintf(&b, `<item sku="sku-%d" restricted="%s"><qty>%d</qty></item>`, rng.IntN(500), yn, qty)
	}
	b.WriteString("</items></offerRequest>")
	return b.String()
}
