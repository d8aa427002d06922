package slicing

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/msgstore"
	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// putProps enqueues with a hand-built property map (bypassing Evaluate).
func putProps(t testing.TB, ms *msgstore.Store, queue string, props map[string]xdm.Value) msgstore.MsgID {
	t.Helper()
	tx := ms.Begin()
	if err := tx.Enqueue(queue, xmldom.MustParse(`<m/>`), props, time.Now()); err != nil {
		t.Fatal(err)
	}
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return out[0].ID
}

// TestMaterializedMergedDifferential drives the same workload — several
// keys, several queues (one transient), an off-queue property, an undeclared
// property, a reset, a collector pass, a slicing declared after its members —
// through a manager reading the store's property index and a manager on a
// scan-only store, and demands from both the slice views of a model kept by
// hand. The store has no other derived index: msgstore.VerifyIntegrity holds
// the property index to a recomputation, this holds the view on top of it.
func TestMaterializedMergedDifferential(t *testing.T) {
	stores := map[string]*msgstore.Store{}
	managers := map[string]*Manager{}
	for _, mode := range modes {
		ms := openStore(t, t.TempDir(), mode.noIndex)
		t.Cleanup(func() { ms.Close() })
		ms.CreateQueue("crm", msgstore.Persistent, 0)
		ms.CreateQueue("customer", msgstore.Persistent, 0)
		ms.CreateQueue("other", msgstore.Persistent, 0)
		ms.CreateQueue("tmp", msgstore.Transient, 0)
		stores[mode.name] = ms
		// "ghost" is never declared, so no slicing can be over it: a message
		// may still carry a value of that name (set by a rule, inherited),
		// which must hold nothing back in retention.
		managers[mode.name] = NewManager(ms, requestMsgs("crm", "customer", "tmp")) // "other" deliberately absent
	}

	keys := []string{"r1", "r2", "r\x00odd", ""}
	queues := []string{"crm", "customer", "other", "tmp"}
	model := map[string][]msgstore.MsgID{} // key → members on the queues the property is defined on
	var inCRM []msgstore.MsgID
	for i := 0; i < 32; i++ {
		key, queue := keys[i%len(keys)], queues[i/len(keys)%len(queues)]
		pv := map[string]xdm.Value{"requestID": xdm.NewString(key), "ghost": xdm.NewString("g1")}
		id := putProps(t, stores["index-range"], queue, pv)
		if other := putProps(t, stores["queue-scan"], queue, pv); other != id {
			t.Fatalf("the stores assign different ids: %d, %d", id, other)
		}
		if queue != "other" {
			model[key] = append(model[key], id)
		}
		if queue == "crm" {
			inCRM = append(inCRM, id)
		}
	}
	check := func(stage, slicing string, want map[string][]msgstore.MsgID) {
		t.Helper()
		for _, key := range keys {
			for mode, sm := range managers {
				if got := sm.SliceMembers(slicing, key); !slices.Equal(got, want[key]) {
					t.Fatalf("%s: %s key %q: %s=%v, model=%v", stage, slicing, key, mode, got, want[key])
				}
			}
		}
	}
	check("initial", "requestMsgs", model)

	const watermark = 10
	visible := map[string][]msgstore.MsgID{}
	for key, ids := range model {
		visible[key] = ids
	}
	visible["r1"] = slices.DeleteFunc(slices.Clone(model["r1"]), func(id msgstore.MsgID) bool { return id <= watermark })
	if len(visible["r1"]) == 0 || len(visible["r1"]) == len(model["r1"]) {
		t.Fatalf("setup: the reset dismisses %d of %d members", len(model["r1"])-len(visible["r1"]), len(model["r1"]))
	}
	for _, sm := range managers {
		reset(sm, "requestMsgs", "r1", watermark)
	}
	check("after reset", "requestMsgs", visible)

	// The collector takes the processed messages no live slice holds: in crm
	// that is the dismissed member of r1 and nothing else — the ghost value
	// holds nothing back.
	dismissedInCRM := inCRM[0]
	for mode, sm := range managers {
		markProcessed(t, stores[mode], inCRM...)
		if n, err := collect(sm, "crm"); n != 1 || err != nil {
			t.Fatalf("%s: collected %d (%v), want message %d alone", mode, n, err, dismissedInCRM)
		}
		if _, live := stores[mode].Get(dismissedInCRM); live {
			t.Fatalf("%s: dismissed message %d survived the pass", mode, dismissedInCRM)
		}
	}
	check("after collect", "requestMsgs", visible)

	// A slicing declared now (a reload's new manager, which replays the
	// resets) finds the members enqueued before it, in its own first
	// lifetime: the reset of requestMsgs/r1 is not its reset.
	stored := map[string][]msgstore.MsgID{}
	for key, ids := range model {
		stored[key] = slices.DeleteFunc(slices.Clone(ids), func(id msgstore.MsgID) bool { return id == dismissedInCRM })
	}
	late := graphOf(map[string]string{"requestMsgs": "requestID", "late": "requestID"}, "crm", "customer", "tmp")
	for mode := range managers {
		managers[mode] = NewManager(stores[mode], late)
		reset(managers[mode], "requestMsgs", "r1", watermark)
	}
	check("late slicing", "late", stored)
	check("late slicing", "requestMsgs", visible)
}

// TestSliceKeySeparatorIsolation pins the index key codec: under
// "\x00"-separated keys the pairs (property "p", key "k\x00x") and (property
// "p\x00k", key "x") encode to the same scan prefix, so each slice would leak
// the other's members.
func TestSliceKeySeparatorIsolation(t *testing.T) {
	ms := openStore(t, t.TempDir(), false)
	defer ms.Close()
	ms.CreateQueue("q", msgstore.Persistent, 0)
	sm := NewManager(ms, graphOf(map[string]string{"s": "p", "s\x00k": "p\x00k"}, "q"))

	a := putProps(t, ms, "q", map[string]xdm.Value{"p": xdm.NewString("k\x00x")})
	b := putProps(t, ms, "q", map[string]xdm.Value{"p\x00k": xdm.NewString("x")})

	if got := sm.SliceMembers("s", "k\x00x"); len(got) != 1 || got[0] != a {
		t.Fatalf("slice s/k\\0x: %v (leak from sibling pair)", got)
	}
	if got := sm.SliceMembers("s\x00k", "x"); len(got) != 1 || got[0] != b {
		t.Fatalf("slice s\\0k/x: %v (leak from sibling pair)", got)
	}
}

// TestSliceMembersWatermarkRace pins the single-lock watermark read: a
// writer interleaves Reset with new members while readers assert that any
// view containing member n holds no member at or below the watermark that
// preceded n. With the watermark read under one RLock and the index scanned
// under a second, a Reset landing between them produces exactly such a stale
// view. Run under -race in CI.
func TestSliceMembersWatermarkRace(t *testing.T) {
	opts := msgstore.DefaultOptions()
	opts.Store.SyncCommits = false // more interleavings per second
	ms, err := msgstore.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ms.CreateQueue("crm", msgstore.Persistent, 0)
	sm := NewManager(ms, requestMsgs("crm"))
	pv := map[string]xdm.Value{"requestID": xdm.NewString("r1")}

	var mu sync.Mutex
	wmOf := map[msgstore.MsgID]msgstore.MsgID{}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var last msgstore.MsgID
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			reset(sm, "requestMsgs", "r1", last)
			tx := ms.Begin()
			if err := tx.Enqueue("crm", xmldom.MustParse(`<m/>`), pv, time.Now()); err != nil {
				done <- err
				return
			}
			out, err := tx.Commit()
			if err != nil {
				done <- err
				return
			}
			// Recorded after the publish: a reader that sees n before this
			// only checks the view less strictly.
			n := out[0].ID
			mu.Lock()
			wmOf[n] = last
			mu.Unlock()
			last = n
		}
	}()
	for i := 0; i < 5000; i++ {
		got := sm.SliceMembers("requestMsgs", "r1")
		if len(got) == 0 {
			continue
		}
		mu.Lock()
		var maxWM msgstore.MsgID
		for _, id := range got {
			if wm := wmOf[id]; wm > maxWM {
				maxWM = wm
			}
		}
		mu.Unlock()
		for _, id := range got {
			if id <= maxWM {
				t.Fatalf("member %d visible alongside a member whose reset watermark is %d", id, maxWM)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestQueueScanKeepsEnqueueOrder pins enqueue-order output for the queue
// scan, which goes queue by queue and relies on the sort: the later message
// sits in the queue scanned first.
func TestQueueScanKeepsEnqueueOrder(t *testing.T) {
	ms, props, sm := setup(t, true)
	var want []msgstore.MsgID
	for _, queue := range []string{"customer", "crm", "customer", "crm"} {
		want = append(want, put(t, ms, props, queue, `<m><requestID>r1</requestID></m>`))
	}
	if got := sm.SliceMembers("requestMsgs", "r1"); !slices.Equal(got, want) {
		t.Fatalf("scan order %v, enqueue order %v", got, want)
	}
}

// joinAndReset runs one request's life on a slice: two members join, are
// processed, and a persisted reset dismisses them.
func joinAndReset(t testing.TB, ms *msgstore.Store, sm *Manager, key string) (dismissed []msgstore.MsgID) {
	pv := map[string]xdm.Value{"requestID": xdm.NewString(key)}
	dismissed = []msgstore.MsgID{putProps(t, ms, "crm", pv), putProps(t, ms, "customer", pv)}
	tx := ms.Begin()
	tx.MarkProcessedAll(dismissed)
	tx.RecordReset("requestMsgs", key)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tx.AppliedResets {
		sm.Reset(ev)
	}
	return dismissed
}

func collectPass(sm *Manager) error {
	pass := sm.BeginPass()
	for _, queue := range []string{"crm", "customer"} {
		if _, err := pass.Collect(queue); err != nil {
			return err
		}
	}
	return pass.Commit()
}

// TestResetLogStaysBounded: a reset is remembered, in memory and on disk,
// only while a message it dismisses is still stored. 5 000 join-and-reset
// cycles with a collector pass every 100 leave neither 5 000 watermarks nor
// 5 000 records to replay — and a slice that is reset over and over while it
// keeps a dismissed member keeps one record, not one per reset.
func TestResetLogStaysBounded(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			cycles := 5000
			if mode.noIndex {
				cycles = 500 // every probe of the reference is a queue scan
			}
			opts := msgstore.DefaultOptions()
			opts.Store.SyncCommits = false
			opts.NoPropertyIndex = mode.noIndex
			ms, err := msgstore.Open(t.TempDir(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()
			ms.CreateQueue("crm", msgstore.Persistent, 0)
			ms.CreateQueue("customer", msgstore.Persistent, 0)
			sm := NewManager(ms, requestMsgs("crm", "customer"))

			// Never processed, so never collected: the resets of "hot" always
			// have something left to dismiss.
			hot := putProps(t, ms, "crm", map[string]xdm.Value{"requestID": xdm.NewString("hot")})
			for i := 0; i < cycles; i++ {
				joinAndReset(t, ms, sm, fmt.Sprintf("r%d", i))
				tx := ms.Begin()
				tx.RecordReset("requestMsgs", "hot")
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				sm.Reset(tx.AppliedResets[0])
				if i%100 == 99 {
					if err := collectPass(sm); err != nil {
						t.Fatal(err)
					}
				}
			}
			events, err := ms.ResetEvents()
			if err != nil {
				t.Fatal(err)
			}
			if len(sm.resets) != 1 || len(events) != 1 || events[0].Key != "hot" {
				t.Fatalf("after %d cycles and a final pass: %d watermarks, %d reset records", cycles, len(sm.resets), len(events))
			}
			if got := sm.SliceMembers("requestMsgs", "hot"); len(got) != 0 {
				t.Fatalf("message %d dismissed %d times is visible: %v", hot, cycles, got)
			}
		})
	}
}

// TestCollectPassCrashSweep crashes one collector pass at every disk
// operation, and tears its one log write at every byte, and reopens:
// whatever the crash kept of the message deletes and of the reset-record
// deletes, the store verifies, no dismissed message is visible in its slice
// again, and no member of a live slice is lost. The torn writes reach the
// two states the pass's log order allows: payloads deleted with their status
// records kept, and messages deleted with their resets kept.
func TestCollectPassCrashSweep(t *testing.T) {
	const dir = "sweep" // FaultFS only
	queues := []string{"crm", "customer"}
	opts := func(fs *faultinject.FaultFS) msgstore.Options {
		opts := msgstore.DefaultOptions()
		opts.Store.VFS = fs
		return opts
	}
	sawOrphans, sawStale := false, false
	all := faultinject.Sweep(t, faultinject.Scenario[*collectRun]{
		Fault: faultinject.CrashAndTearEveryPrefix, Exact: true,
		// Setup builds the state the pass collects.
		Setup: func(t testing.TB, fs *faultinject.FaultFS, _ *faultinject.FaultNet) *collectRun {
			ms, err := msgstore.Open(dir, opts(fs))
			if err != nil {
				t.Fatal(err)
			}
			ms.CreateQueue("crm", msgstore.Persistent, 0)
			ms.CreateQueue("customer", msgstore.Persistent, 0)
			r := &collectRun{fs: fs, ms: ms, sm: NewManager(ms, requestMsgs(queues...)), dismissed: map[string][]msgstore.MsgID{}}
			for i := 0; i < 4; i++ {
				key := fmt.Sprintf("r%d", i)
				r.dismissed[key] = joinAndReset(t, ms, r.sm, key)
			}
			// A second lifetime of r0 and a slice never reset: both stay.
			r.live = append(r.live, putProps(t, ms, "crm", map[string]xdm.Value{"requestID": xdm.NewString("r0")}))
			r.live = append(r.live, putProps(t, ms, "customer", map[string]xdm.Value{"requestID": xdm.NewString("keep")}))
			markProcessed(t, ms, r.live...)
			return r
		},
		Run: func(_ testing.TB, r *collectRun) error {
			defer r.ms.PageStore().CrashForTest()
			return collectPass(r.sm)
		},
		Probe: func(t testing.TB, _ *collectRun, window []faultinject.FaultPoint) {
			syncs, logWrites := 0, 0
			for _, op := range window {
				switch {
				case op.Op == "sync":
					syncs++
				case op.Op == "write" && op.Class == "wal":
					logWrites++
				}
			}
			if syncs != 1 || logWrites != 1 {
				t.Fatalf("the pass flushed the log %d times, want once, in %d disk operations: %v", syncs, len(window), window)
			}
		},
		// Check reopens the crashed store and holds it to the model. It notes
		// whether status records outlived their payloads and whether reset
		// records outlived every message they dismiss.
		Check: func(t testing.TB, r *collectRun) {
			ms, err := msgstore.Open(dir, opts(r.fs))
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer ms.PageStore().CrashForTest()
			if err := ms.VerifyIntegrity(); err != nil {
				t.Fatal(err)
			}
			sm := NewManager(ms, requestMsgs(queues...))
			events, err := ms.ResetEvents()
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range events {
				sm.Reset(ev)
			}
			for key, ids := range r.dismissed {
				for _, id := range sm.SliceMembers("requestMsgs", key) {
					if slices.Contains(ids, id) {
						t.Fatalf("dismissed message %d is back in slice %s", id, key)
					}
				}
			}
			if got := sm.SliceMembers("requestMsgs", "r0"); !slices.Equal(got, r.live[:1]) {
				t.Fatalf("second lifetime of r0 holds %v, want %v", got, r.live[:1])
			}
			if got := sm.SliceMembers("requestMsgs", "keep"); !slices.Equal(got, r.live[1:]) {
				t.Fatalf("live slice holds %v, want %v", got, r.live[1:])
			}
			for _, queue := range queues {
				h, _ := ms.PageStore().Heap("s:" + queue)
				statuses := 0
				ms.PageStore().Scan(h, func(store.RID, []byte) bool { statuses++; return true })
				msgs, _ := ms.Messages(queue)
				sawOrphans = sawOrphans || statuses > len(msgs)
			}
			for _, ev := range events {
				gone := true
				for _, id := range r.dismissed[ev.Key] {
					_, stored := ms.Get(id)
					gone = gone && !stored
				}
				sawStale = sawStale || gone
			}
		},
	})
	if all && (!sawOrphans || !sawStale) {
		t.Fatalf("no torn prefix kept payload deletes without status deletes (%v) or message deletes without reset deletes (%v)", !sawOrphans, !sawStale)
	}
}

// collectRun is the collector sweep's state: the store and slices one pass
// collects, the messages four resets dismissed, and two live ones.
type collectRun struct {
	fs        *faultinject.FaultFS
	ms        *msgstore.Store
	sm        *Manager
	dismissed map[string][]msgstore.MsgID
	live      []msgstore.MsgID
}
