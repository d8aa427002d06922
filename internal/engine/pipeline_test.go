package engine

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/store"
	locks "demaq/internal/txn"
)

// Tests of the worker commit pipeline: pre-commit, early lock release, the
// durability stage, and the admission path's slice lock.

// syncVFS slows or holds the syncs of the VFS it wraps: a flush then takes
// long enough for the workers to run ahead of it, or as long as the test
// says.
type syncVFS struct {
	store.VFS
	delay time.Duration

	mu      sync.Mutex
	hold    chan struct{} // non-nil: syncs wait until it is closed
	waiting atomic.Int64  // syncs currently held
}

func (v *syncVFS) OpenFile(path string) (store.File, error) {
	f, err := v.VFS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return &syncFile{File: f, v: v}, nil
}

// holdSyncs makes every sync from now on wait for the returned release,
// which may be called more than once: a test defers it as well, so that a
// failure does not leave the engine's Stop waiting for the log.
func (v *syncVFS) holdSyncs() (release func()) {
	ch := make(chan struct{})
	v.mu.Lock()
	v.hold = ch
	v.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			v.mu.Lock()
			v.hold = nil
			v.mu.Unlock()
			close(ch)
		})
	}
}

type syncFile struct {
	store.File
	v *syncVFS
}

func (f *syncFile) Sync() error {
	if f.v.delay > 0 {
		time.Sleep(f.v.delay)
	}
	f.v.mu.Lock()
	hold := f.v.hold
	f.v.mu.Unlock()
	if hold != nil {
		f.v.waiting.Add(1)
		<-hold
		f.v.waiting.Add(-1)
	}
	return f.File.Sync()
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// TestAdmissionTakesSliceLock: while a foreign transaction holds the lock a
// slicing rule's evaluation of slice k1 holds under each granularity, an
// external enqueue into k1 neither publishes the message nor adds it to the
// slice; it does both once the lock is released, and it has let go of the
// lock again by the time it waits for the log. An enqueue into k2 is held up
// only where the two slices share a lock: under LockQueue, which locks the
// whole slicing.
func TestAdmissionTakesSliceLock(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      LockGranularity
		k1     string // the slice lock as a slicing rule on k1 holds it
		shared bool   // k2's admission needs it too
	}{
		{"locking=slice", LockSlice, locks.Resource("sl", "byKey", "k1"), false},
		{"locking=queue", LockQueue, locks.Resource("sl", "byKey"), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			vfs := &syncVFS{VFS: faultinject.NewFaultFS(5)}
			e, err := New(Config{Dir: "admit", Workers: 1, Logger: quietLog, Granularity: c.g,
				Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
				qdl.MustParse(`
				create queue in kind basic mode persistent;
				create property key as xs:string fixed queue in value //key;
				create slicing byKey on key;
			`))
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop() // never started: the messages stay unprocessed

			const foreign = 1 << 40
			if err := e.lm.Acquire(foreign, c.k1, locks.S); err != nil {
				t.Fatal(err)
			}
			enqueue := func(key string) <-chan enqueueResult {
				waits := e.Stats().LockWaits
				done := make(chan enqueueResult, 1)
				go func() {
					id, err := e.EnqueueWire("in", []byte(`<part><key>`+key+`</key></part>`), nil)
					done <- enqueueResult{id, err}
				}()
				if c.shared || key == "k1" {
					// The enqueue is parked in the lock manager.
					waitFor(t, 10*time.Second, func() bool { return e.Stats().LockWaits > waits })
				}
				return done
			}
			done := enqueue("k1")
			select {
			case r := <-done:
				t.Fatalf("enqueue returned (%d, %v) while the slice was locked", r.id, r.err)
			default:
			}
			// Nothing of the message is visible.
			if msgs, _ := e.MessageStore().Messages("in"); len(msgs) != 0 {
				t.Fatalf("%d messages published under a foreign slice lock", len(msgs))
			}
			if ids := e.Slices().SliceMembers("byKey", "k1"); len(ids) != 0 {
				t.Fatalf("slice has members %v under a foreign slice lock", ids)
			}
			other := enqueue("k2")
			if !c.shared {
				// A message of another slice is not held up.
				if r := <-other; r.err != nil {
					t.Fatal(r.err)
				}
			} else {
				select {
				case r := <-other:
					t.Fatalf("enqueue into k2 returned (%d, %v) while its slicing was locked", r.id, r.err)
				default:
				}
			}

			// Released, the enqueue publishes, and then waits for the log —
			// without the slice lock: the foreign transaction gets it back at
			// once.
			release := vfs.holdSyncs()
			defer release()
			e.lm.ReleaseAll(foreign)
			waitFor(t, 10*time.Second, func() bool { return vfs.waiting.Load() > 0 })
			if ids := e.Slices().SliceMembers("byKey", "k1"); len(ids) != 1 {
				t.Fatalf("slice members after release: %v, want one", ids)
			}
			relocked := make(chan error, 1)
			go func() { relocked <- e.lm.Acquire(foreign, c.k1, locks.X) }()
			select {
			case err := <-relocked:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the enqueue holds its slice lock while it waits for the log")
			}
			select {
			case r := <-done:
				t.Fatalf("enqueue returned (%d, %v) before its commit was durable", r.id, r.err)
			default:
			}
			release()
			if r := <-done; r.err != nil {
				t.Fatal(r.err)
			}
			if c.shared {
				if r := <-other; r.err != nil {
					t.Fatal(r.err)
				}
			}
			e.lm.ReleaseAll(foreign)
		})
	}
}

// TestAdmissionStagedBeforeSliceReset: a message staged before a reset of
// the slice it joins, and published after it, is a member of the slice. Its
// ID is assigned under the slice lock, so the reset's watermark — the highest
// ID at the reset — lies below it.
func TestAdmissionStagedBeforeSliceReset(t *testing.T) {
	e, err := New(Config{Dir: t.TempDir(), Workers: 1, Logger: quietLog}, qdl.MustParse(`
		create queue in kind basic mode persistent;
		create property key as xs:string fixed queue in value //key;
		create slicing byKey on key;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop() // never started: the message stays unprocessed

	const owner = 1 << 40
	if err := e.lm.Acquire(owner, locks.Resource("sl", "byKey", "k1"), locks.X); err != nil {
		t.Fatal(err)
	}
	waits, _ := e.lm.Stats()
	done := make(chan enqueueResult, 1)
	go func() {
		id, err := e.EnqueueWire("in", []byte(`<part><key>k1</key></part>`), nil)
		done <- enqueueResult{id, err}
	}()
	// The admission has staged its message and waits for the slice lock.
	waitFor(t, 10*time.Second, func() bool { w, _ := e.lm.Stats(); return w > waits })

	// The lock owner resets the slice, as a rule's do reset would, and lets go.
	tx := e.ms.Begin()
	tx.RecordReset("byKey", "k1")
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, re := range tx.AppliedResets {
		e.slices.Reset(re)
	}
	e.lm.ReleaseAll(owner)

	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if ids := e.Slices().SliceMembers("byKey", "k1"); len(ids) != 1 || ids[0] != r.id {
		t.Fatalf("slice members %v after the reset, want the admitted message %d", ids, r.id)
	}
}

// --- the rule-error crash hole ---------------------------------------------

const failingApp = `
create queue in kind basic mode persistent;
create queue out kind basic mode persistent;
create queue errs kind basic mode persistent;
create rule bad for in errorqueue errs
  if (//m) then do enqueue <x>{1 idiv 0}</x> into out;
`

// TestRuleErrorSurvivesCrash crashes the node at every disk op of processing
// a message whose rule always fails. However the crash falls, the recovered
// store holds the message either unprocessed and without an error message,
// or processed with exactly one: the message is never consumed without the
// error the application compensates on (Sec. 3.6).
func TestRuleErrorSurvivesCrash(t *testing.T) {
	run := func(t *testing.T, k int) (from, to int) {
		net := gateway.NewNetwork(1)
		defer net.Close()
		c := newCrashNode(t, failingApp, nil, net)
		c.open()
		defer func() { c.eng.Stop() }()
		if _, err := c.eng.EnqueueXML("in", `<m/>`, nil); err != nil {
			t.Fatal(err)
		}
		from = c.fs.Ops()
		if k > 0 {
			c.fs.CrashAt(k)
		}
		c.onReboot = func() {
			in, _ := c.eng.MessageStore().Messages("in")
			errs, _ := c.eng.MessageStore().Messages("errs")
			if len(in) != 1 {
				t.Fatalf("acknowledged input lost: in holds %d messages", len(in))
			}
			if want := map[bool]int{false: 0, true: 1}[in[0].Processed]; len(errs) != want {
				t.Fatalf("recovered: input processed=%v with %d error messages, want %d",
					in[0].Processed, len(errs), want)
			}
		}
		c.eng.Start()
		c.settle()
		ms := c.eng.MessageStore()
		if err := ms.VerifyIntegrity(); err != nil {
			t.Fatalf("integrity: %v", err)
		}
		checkAllProcessed(t, c.eng, "in", 1)
		errs, _ := ms.QueueDocs("errs")
		if len(errs) != 1 || childElement(errs[0].Root(), "rule").StringValue() != "bad" {
			t.Fatalf("want exactly one error message of rule bad, have %d", len(errs))
		}
		if out, _ := ms.Messages("out"); len(out) != 0 {
			t.Fatalf("failed rule produced %d messages", len(out))
		}
		return from, c.fs.Ops()
	}
	from, to := run(t, 0)
	if to == from {
		t.Fatal("op enumeration empty")
	}
	for _, k := range sweepSites(t, from, to, 0) {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) { run(t, k) })
	}
}

// --- the procurement pipeline under crashes and a dying log ------------------

const procurementTap = `
create queue tapOut kind outgoingGateway mode persistent
  interface recv.wsdl port RecvPort
  errorqueue tapErrors;
create queue tapErrors kind basic mode persistent;
create rule tap for customer errorqueue tapErrors
  if (/offer or /refusal) then
    do enqueue <result>{/*/requestID}<kind>{local-name(/*)}</kind></result> into tapOut;
`

// procurementRequest is request i of the pipeline tests: every fourth one
// carries a restricted item and is refused.
func procurementRequest(i int) (xml, kind string) {
	restricted, kind := "no", "offer"
	if i%4 == 3 {
		restricted, kind = "yes", "refusal"
	}
	return fmt.Sprintf(`<offerRequest><requestID>r%d</requestID><customerID>c%d</customerID>`+
		`<items><item sku="s%d" restricted="%s"><qty>%d</qty></item></items></offerRequest>`,
		i, i, i, restricted, 1+i%50), kind
}

func procurementResult(i int) string {
	_, kind := procurementRequest(i)
	return fmt.Sprintf("<result><requestID>r%d</requestID><kind>%s</kind></result>", i, kind)
}

// pipelineNode is a crashNode running the procurement application with its
// results tapped to a recorder, on a FaultFS whose syncs take long enough
// for the workers to get ahead of the log.
type pipelineNode struct {
	*crashNode
	rec *recorder
}

func newPipelineNode(t *testing.T, workers int) *pipelineNode {
	fn := faultinject.NewFaultNet(1)
	t.Cleanup(fn.Close)
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	c := newCrashNode(t, qdl.ProcurementApp+procurementTap, senderFiles, fn)
	c.cfg.Workers = workers
	// The torture store's 16 buffer pages make a worker flush the log itself,
	// for every dirty page it evicts; with 32 the application's working set
	// fits and the workers are only ever behind the durability stage.
	c.cfg.Store.Store.BufferPages = 32
	c.cfg.Store.Store.VFS = &syncVFS{VFS: c.fs, delay: 2 * time.Millisecond}
	return &pipelineNode{crashNode: c, rec: rec}
}

// checkSentIsStored asserts that everything the sink received so far exists
// in the node's store: nothing left the node ahead of the disk.
func (p *pipelineNode) checkSentIsStored(when string) {
	p.t.Helper()
	stored := map[string]bool{}
	docs, err := p.eng.MessageStore().QueueDocs("tapOut")
	if err != nil {
		p.t.Fatal(err)
	}
	for _, d := range docs {
		stored[d.StringValue()] = true
	}
	for _, sent := range p.rec.payloads() {
		id := sent[strings.Index(sent, "<requestID>")+len("<requestID>") : strings.Index(sent, "</requestID>")]
		kind := sent[strings.Index(sent, "<kind>")+len("<kind>") : strings.Index(sent, "</kind>")]
		if !stored[id+kind] {
			p.t.Fatalf("%s: the sink holds %s, the store does not: it left the node ahead of the disk", when, sent)
		}
	}
}

// checkConverged asserts the reference result of n requests: every input
// processed, exactly one offer or refusal per request, every result at the
// sink (at least once: the transport is plain), no error anywhere.
func (p *pipelineNode) checkConverged(n int) {
	t := p.t
	t.Helper()
	ms := p.eng.MessageStore()
	if err := ms.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	for _, q := range []string{"crm", "finance", "legal", "supplier", "customer", "tapOut"} {
		msgs, _ := ms.Messages(q)
		for _, m := range msgs {
			if !m.Processed {
				t.Fatalf("message %d of %s is still unprocessed", m.ID, q)
			}
		}
	}
	for _, q := range []string{"crmErrors", "tapErrors"} {
		if docs, _ := ms.QueueDocs(q); len(docs) != 0 {
			t.Fatalf("%s not empty: %s", q, docs[0].StringValue())
		}
	}
	var want, got []string
	for i := 0; i < n; i++ {
		_, kind := procurementRequest(i)
		want = append(want, fmt.Sprintf("%s r%d", kind, i))
	}
	docs, _ := ms.QueueDocs("customer")
	for _, d := range docs {
		got = append(got, d.Root().Name.Local+" "+childElement(d.Root(), "requestID").StringValue())
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("customer queue:\n got  %v\n want %v", got, want)
	}
	sent := map[string]bool{}
	for _, payload := range p.rec.payloads() {
		sent[payload] = true
	}
	for i := 0; i < n; i++ {
		if !sent[procurementResult(i)] {
			t.Fatalf("the sink never received %s", procurementResult(i))
		}
	}
	if len(sent) != n {
		t.Fatalf("the sink received %d distinct results, want %d", len(sent), n)
	}
}

// TestPipelinedCommitCrashSweep crashes the procurement application at every
// disk op of working off a backlog deep enough that the workers run several
// transactions ahead of the durable log. At every site the recovered store
// is consistent and holds everything the sink has seen; after the restart
// every input is processed exactly once and every request has exactly one
// offer or refusal.
func TestPipelinedCommitCrashSweep(t *testing.T) {
	const n = 16
	run := func(t *testing.T, k int) (from, to int, st Stats) {
		p := newPipelineNode(t, 2)
		p.open()
		defer func() { p.eng.Stop() }()
		for i := 0; i < n; i++ {
			xml, _ := procurementRequest(i)
			if _, err := p.eng.EnqueueXML("crm", xml, nil); err != nil {
				t.Fatal(err)
			}
		}
		from = p.fs.Ops()
		if k > 0 {
			p.fs.CrashAt(k)
		}
		p.onReboot = func() { p.checkSentIsStored(fmt.Sprintf("after the crash at op %d", k)) }
		p.eng.Start()
		crashed := p.settle()
		if !crashed {
			st = p.eng.Stats()
		}
		p.checkSentIsStored("at the end")
		p.checkConverged(n)
		return from, p.fs.Ops(), st
	}
	from, to, st := run(t, 0)
	// The probe: the sweep is only worth its name if the workers really were
	// ahead of the log at its crash sites.
	if st.DurabilityWaits == 0 || st.PipelinedCommits < 2*st.DurabilityWaits {
		t.Fatalf("workers did not run ahead of the log: %d pipelined commits in %d durability waits",
			st.PipelinedCommits, st.DurabilityWaits)
	}
	sites := sweepSites(t, from, to, 16)
	t.Logf("crashing at %d of %d disk sites; fault-free: %d pipelined commits in %d durability waits",
		len(sites), to-from, st.PipelinedCommits, st.DurabilityWaits)
	for _, k := range sites {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) { run(t, k) })
	}
}

// TestPipelinedCommitWALFailure lets the log device die under the running
// pipeline: the engine turns degraded, nothing that is not durable reaches
// the sink, Shutdown returns, and a restart on a healthy disk converges to
// the reference result.
func TestPipelinedCommitWALFailure(t *testing.T) {
	const n = 24
	p := newPipelineNode(t, 2)
	p.open()
	for i := 0; i < n; i++ {
		xml, _ := procurementRequest(i)
		if _, err := p.eng.EnqueueXML("crm", xml, nil); err != nil {
			t.Fatal(err)
		}
	}
	p.eng.Start()
	// Mid-pipeline: some transactions are through, most of the work is not.
	waitFor(t, 10*time.Second, func() bool { return p.eng.Stats().PipelinedCommits >= 8 })
	p.fs.FailWritesAfter(p.fs.Ops() + 1)
	waitFor(t, 10*time.Second, p.eng.Degraded)
	if _, err := p.eng.EnqueueXML("crm", `<offerRequest/>`, nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("enqueue on a degraded node: %v", err)
	}
	returned := make(chan struct{})
	go func() {
		p.eng.Shutdown(200 * time.Millisecond) // the dead device's close error is expected
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hangs on a degraded node")
	}
	if st := p.eng.Stats(); st.UndurableBatches != 0 {
		t.Fatalf("%d transactions still wait for the log after Shutdown", st.UndurableBatches)
	}

	// The machine did not lose power: what the log wrote before the device
	// died is what a restart finds.
	p.fs.ClearFault()
	p.open()
	defer func() { p.eng.Stop() }()
	p.checkSentIsStored("after the restart")
	p.eng.Start()
	if p.settle() {
		t.Fatal("unexpected crash")
	}
	p.checkConverged(n)
}

// TestDrainWaitsForDurability: a message counts as done for Drain — and so
// for Shutdown — only once the transaction that processed it is durable.
func TestDrainWaitsForDurability(t *testing.T) {
	const n = 10
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(3)}
	e, err := New(Config{Dir: "drain", Workers: 2, Logger: quietLog,
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(pingPongApp))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < n; i++ {
		if _, err := e.EnqueueXML("in", fmt.Sprintf(`<ping>%d</ping>`, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	release := vfs.holdSyncs()
	defer release()
	e.Start()
	// Every message is processed as far as anyone in the process can tell...
	// (the ping and the pong it made, which no rule reads)
	waitFor(t, 10*time.Second, func() bool { return e.Stats().Processed == 2*n && vfs.waiting.Load() > 0 })
	checkAllProcessed(t, e, "in", n)
	if out, _ := e.MessageStore().Messages("out"); len(out) != n {
		t.Fatalf("out holds %d messages, want %d", len(out), n)
	}
	// ...but not durably, and Drain knows.
	if e.Drain(50 * time.Millisecond) {
		t.Fatal("Drain reports an idle node while its commits wait for the log")
	}
	if st := e.Stats(); st.UndurableBatches == 0 {
		t.Fatalf("no undurable batches while the log is held: %+v", st)
	}
	release()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain once the log went through")
	}
	if st := e.Stats(); st.UndurableBatches != 0 || st.PipelinedCommits == 0 || st.DurabilityWaits == 0 {
		t.Fatalf("after the drain: %+v", st)
	}
}

// TestEarlyLockReleaseOrdering runs N workers over a chain of queues and
// keeps the LSN every transaction pre-committed at: the transaction that
// consumed a message always has a higher commit LSN than the one that created
// it, so the log can lose the consumer without the creator but never the
// other way round — the argument early lock release rests on. The workers are
// the test's own, so that it sees what processBatch returns: they claim
// batches of one from the engine's scheduler, which a message reaches only
// through applyBatch's routing.
func TestEarlyLockReleaseOrdering(t *testing.T) {
	const n, stages, workers = 60, 5, 8
	var app strings.Builder
	for s := 0; s < stages; s++ {
		fmt.Fprintf(&app, "create queue s%d kind basic mode persistent;\n", s)
		if s > 0 {
			fmt.Fprintf(&app, "create rule f%d for s%d if (/m) then do enqueue <m>{/m/text()}</m> into s%d;\n", s, s-1, s)
		}
	}
	e, err := New(Config{Dir: t.TempDir(), Workers: workers, Logger: quietLog}, qdl.MustParse(app.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop() // never started
	enqueueNumbered(t, e, "s0", n)

	// lsn[s][k]: the commit LSN of the transaction that consumed message k in
	// queue s — and, short of the last queue, created it in queue s+1.
	var mu sync.Mutex
	var lsn [stages][n + 1]uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				queue, prio, ids, ok := e.sched.ClaimBatch(1, nil)
				if !ok {
					return
				}
				doc, err := e.ms.Doc(ids[0])
				var pc precommit
				if err == nil {
					_, pc, err = e.processBatch(queue, prio, ids, nil)
					for err == locks.ErrDeadlock {
						_, pc, err = e.processBatch(queue, prio, ids, nil)
					}
				}
				if err != nil {
					t.Error(err)
					e.sched.DoneN(1)
					continue
				}
				var s, k int
				fmt.Sscanf(queue, "s%d", &s)
				fmt.Sscanf(doc.StringValue(), "%d", &k)
				mu.Lock()
				lsn[s][k] = pc.lsn
				mu.Unlock()
				e.sched.DoneN(1)
			}
		}()
	}
	e.sched.WaitIdle()
	e.sched.Close()
	wg.Wait()
	for k := 1; k <= n; k++ {
		for s := 0; s < stages; s++ {
			if lsn[s][k] == 0 {
				t.Fatalf("message %d was not processed in s%d", k, s)
			}
			if s > 0 && lsn[s][k] <= lsn[s-1][k] {
				t.Fatalf("message %d of s%d was created at LSN %d and consumed at LSN %d", k, s, lsn[s-1][k], lsn[s][k])
			}
		}
	}
	if st := e.Stats(); st.Errors != 0 || st.Processed != n*stages {
		t.Fatalf("stats: %+v", st)
	}
}

// TestOutputBackpressure: transactions that carry messages for the outside
// run ahead of the log like internal ones, up to undurableCap in all — the
// one bound on the workers — and nothing is sent before it is durable.
func TestOutputBackpressure(t *testing.T) {
	const internal, forwarded, workers = 12, undurableCap, 3
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(9)}
	e, err := New(Config{Dir: "out", Workers: workers, BatchSize: 1, Logger: quietLog,
		Resources: senderFiles, Transports: gateway.NewRegistry(fn),
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(senderApp+`
		create queue internal kind basic mode persistent;
		create queue in kind basic mode persistent;
		create rule fwd for in if (/m) then do enqueue <m>{/m/text()}</m> into out;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < internal; i++ {
		if _, err := e.EnqueueXML("internal", `<k/>`, nil); err != nil {
			t.Fatal(err)
		}
	}
	enqueueNumbered(t, e, "in", forwarded)
	release := vfs.holdSyncs()
	defer release()
	e.Start()
	// undurableCap transactions are handed over — at most internal of them
	// without output — and the workers wait with their next ones.
	stuck := func() bool {
		st := e.Stats()
		return st.PipelinedCommits == undurableCap && st.UndurableBatches == undurableCap
	}
	waitFor(t, 10*time.Second, stuck)
	time.Sleep(20 * time.Millisecond)
	if !stuck() {
		t.Fatalf("workers ran past undurableCap: %+v", e.Stats())
	}
	if got := rec.payloads(); len(got) != 0 {
		t.Fatalf("%d messages sent before their transaction was durable", len(got))
	}
	release()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	checkAllProcessed(t, e, "internal", internal)
	checkAllProcessed(t, e, "out", forwarded)
	if got := rec.payloads(); len(got) != forwarded {
		t.Fatalf("receiver got %d transfers, want %d", len(got), forwarded)
	}
}

// TestWorkersSendOutputOnce: workers whose batches forward one to three
// messages hand them to the stage from several goroutines at once, and
// every message is sent exactly once.
func TestWorkersSendOutputOnce(t *testing.T) {
	const n = 60
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Dir: t.TempDir(), Workers: 4, BatchSize: 3, Logger: quietLog,
		Resources: senderFiles, Transports: gateway.NewRegistry(fn)},
		qdl.MustParse(senderApp+`
		create queue in kind basic mode persistent;
		create rule fwd for in if (/m) then do enqueue <m>{/m/text()}</m> into out;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	enqueueNumbered(t, e, "in", n)
	e.Start()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	checkAllProcessed(t, e, "out", n)
	if got := rec.payloads(); len(got) != n {
		t.Fatalf("receiver got %d transfers, want %d", len(got), n)
	}
}

// TestSenderSendsOnlyReleased: the transmit stage reads the queue itself,
// which also lists what the workers have pre-committed and the durability
// stage still holds back. Behind a deep backlog of released messages, none
// of those is sent before the log has it, and each is sent exactly once
// after.
func TestSenderSendsOnlyReleased(t *testing.T) {
	const direct, forwarded = 1032, 4
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{gate: make(chan struct{})}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(11)}
	// A transient outgoing queue: consuming a transfer costs no flush, so the
	// sender works off the direct backlog while the log is held.
	e, err := New(Config{Dir: "released", Workers: 2, Logger: quietLog,
		Resources: senderFiles, Transports: gateway.NewRegistry(fn),
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(`
		create queue out kind outgoingGateway mode transient
		  interface recv.wsdl port RecvPort
		  errorqueue errs;
		create queue errs kind basic mode persistent;
		create queue in kind basic mode persistent;
		create rule fwd for in if (/f) then do enqueue <f>{/f/text()}</f> into out;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	enqueueNumbered(t, e, "out", direct) // not started: a backlog, all released
	for i := 1; i <= forwarded; i++ {
		if _, err := e.EnqueueXML("in", fmt.Sprintf("<f>%d</f>", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	release := vfs.holdSyncs()
	defer release()
	e.Start()
	// The workers pre-commit their forwards into out while the first send is
	// stuck at the receiver's gate...
	waitFor(t, 10*time.Second, func() bool { return e.Stats().Processed == forwarded })
	if msgs, _ := e.MessageStore().Messages("out"); len(msgs) != direct+forwarded {
		t.Fatalf("out lists %d messages, want %d", len(msgs), direct+forwarded)
	}
	// ...then the sender works off the backlog and reaches the forwards.
	close(rec.gate)
	waitFor(t, 30*time.Second, func() bool { return len(rec.payloads()) >= direct })
	time.Sleep(30 * time.Millisecond)
	for _, p := range rec.payloads() {
		if strings.HasPrefix(p, "<f>") {
			t.Fatalf("%s was sent before the transaction that created it was durable", p)
		}
	}
	release()
	if !e.Drain(30 * time.Second) {
		t.Fatal("engine did not drain")
	}
	checkAllProcessed(t, e, "out", direct+forwarded)
	sent := map[string]int{}
	for _, p := range rec.payloads() {
		sent[p]++
	}
	if len(sent) != direct+forwarded || len(rec.payloads()) != direct+forwarded {
		t.Fatalf("receiver got %d transfers of %d distinct messages, want %d of each",
			len(rec.payloads()), len(sent), direct+forwarded)
	}
}

// TestTransientOutputWaitsForItsCause: a transaction that touches transient
// queues only has no commit record of its own, but what it consumed may be
// the pre-committed work of one that has. Its messages for the outside wait
// for that.
func TestTransientOutputWaitsForItsCause(t *testing.T) {
	const n = 6
	fn := faultinject.NewFaultNet(1)
	defer fn.Close()
	rec := &recorder{}
	if _, err := fn.Subscribe(senderDest, rec.handle); err != nil {
		t.Fatal(err)
	}
	vfs := &syncVFS{VFS: faultinject.NewFaultFS(13)}
	e, err := New(Config{Dir: "transient", Workers: 2, Logger: quietLog,
		Resources: senderFiles, Transports: gateway.NewRegistry(fn),
		Store: msgstore.Options{Store: store.Options{VFS: vfs, SyncCommits: true}}},
		qdl.MustParse(`
		create queue in kind basic mode persistent;
		create queue mid kind basic mode transient;
		create queue out kind outgoingGateway mode transient
		  interface recv.wsdl port RecvPort
		  errorqueue errs;
		create queue errs kind basic mode persistent;
		create rule a for in if (/m) then do enqueue <m>{/m/text()}</m> into mid;
		create rule b for mid if (/m) then do enqueue <m>{/m/text()}</m> into out;
	`))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	enqueueNumbered(t, e, "in", n)
	release := vfs.holdSyncs()
	defer release()
	e.Start()
	// Messages have made it from in through mid into out, as far as anyone in
	// the process can tell; on disk they are still unprocessed in in.
	waitFor(t, 10*time.Second, func() bool {
		out, _ := e.MessageStore().Messages("out")
		return len(out) > 0 && vfs.waiting.Load() > 0
	})
	time.Sleep(30 * time.Millisecond)
	if got := rec.payloads(); len(got) != 0 {
		t.Fatalf("%d messages sent while the transactions they stem from wait for the log", len(got))
	}
	release()
	if !e.Drain(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	checkAllProcessed(t, e, "out", n)
	if got := rec.payloads(); len(got) != n {
		t.Fatalf("receiver got %d transfers, want %d", len(got), n)
	}
}
