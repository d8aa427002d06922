package slicing

import (
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/rule"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// modes are the two ways slice members are found: as a range of the store's
// property index (production) and by scanning the queues of a store that
// keeps no index (the reference).
var modes = []struct {
	name    string
	noIndex bool
}{{"index-range", false}, {"queue-scan", true}}

func openStore(t testing.TB, dir string, noIndex bool) *msgstore.Store {
	t.Helper()
	opts := msgstore.DefaultOptions()
	opts.NoPropertyIndex = noIndex
	ms, err := msgstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ms.PropertyIndexEnabled() == noIndex {
		t.Fatal("store index setup wrong")
	}
	return ms
}

func requestIDProps(queues ...string) *property.Manager {
	props := property.NewManager()
	def := &property.Def{Name: "requestID", Type: xdm.TypeString, Fixed: true, PerQueue: map[string]*xquery.Compiled{}}
	for _, q := range queues {
		def.PerQueue[q] = xquery.MustCompile(`//requestID`, xquery.CompileOptions{})
	}
	props.Define(def)
	return props
}

// graphOf is the dependency graph of a program whose slicings (name →
// property) are over properties defined on each of queues: the messages of
// those queues join every slicing.
func graphOf(slicings map[string]string, queues ...string) *rule.Graph {
	g := &rule.Graph{SlicingProps: slicings, Queues: map[string]rule.QueueNode{}}
	joins := slices.Sorted(maps.Keys(slicings))
	for _, q := range queues {
		g.Queues[q] = rule.QueueNode{Joins: joins}
	}
	return g
}

// requestMsgs is the graph of slicing requestMsgs over requestID on queues.
func requestMsgs(queues ...string) *rule.Graph {
	return graphOf(map[string]string{"requestMsgs": "requestID"}, queues...)
}

func setup(t *testing.T, noIndex bool) (*msgstore.Store, *property.Manager, *Manager) {
	t.Helper()
	ms := openStore(t, t.TempDir(), noIndex)
	t.Cleanup(func() { ms.Close() })
	props := requestIDProps("crm", "customer")
	sm := NewManager(ms, requestMsgs("crm", "customer"))
	ms.CreateQueue("crm", msgstore.Persistent, 0)
	ms.CreateQueue("customer", msgstore.Persistent, 0)
	return ms, props, sm
}

// put enqueues a message with its evaluated properties: all a slice needs.
func put(t *testing.T, ms *msgstore.Store, props *property.Manager, queue, xml string) msgstore.MsgID {
	t.Helper()
	doc := xmldom.MustParse(xml)
	pv, err := props.Evaluate(queue, doc, nil, nil, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return putProps(t, ms, queue, pv)
}

func reset(sm *Manager, slicing, key string, watermark msgstore.MsgID) {
	sm.Reset(msgstore.ResetEvent{Slicing: slicing, Key: key, Watermark: watermark})
}

func markProcessed(t *testing.T, ms *msgstore.Store, ids ...msgstore.MsgID) {
	t.Helper()
	tx := ms.Begin()
	tx.MarkProcessedAll(ids)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// collect runs a retention pass over one queue.
func collect(sm *Manager, queue string) (int, error) {
	pass := sm.BeginPass()
	n, err := pass.Collect(queue)
	if err != nil {
		return 0, err
	}
	return n, pass.Commit()
}

func testMembership(t *testing.T, noIndex bool) {
	ms, props, sm := setup(t, noIndex)
	a := put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
	b := put(t, ms, props, "customer", `<m><requestID>r1</requestID></m>`)
	c := put(t, ms, props, "crm", `<m><requestID>r2</requestID></m>`)

	got := sm.SliceMembers("requestMsgs", "r1")
	if len(got) != 2 || got[0] != a || got[1] != b {
		t.Fatalf("slice r1: %v", got)
	}
	if got := sm.SliceMembers("requestMsgs", "r2"); len(got) != 1 || got[0] != c {
		t.Fatalf("slice r2: %v", got)
	}
	if got := sm.SliceMembers("requestMsgs", "r9"); len(got) != 0 {
		t.Fatalf("empty slice: %v", got)
	}
	// Cross-queue grouping (the paper's Fig. 2): same key unites messages
	// from different physical queues.
	if len(sm.SlicesOf(a)) != 1 || sm.SlicesOf(a)[0].Key != "r1" {
		t.Fatalf("slicesOf: %v", sm.SlicesOf(a))
	}
}

func TestMembershipMaterialized(t *testing.T) { testMembership(t, false) }
func TestMembershipMerged(t *testing.T)       { testMembership(t, true) }

func TestResetLifetimes(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			ms, props, sm := setup(t, mode.noIndex)
			a := put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
			reset(sm, "requestMsgs", "r1", a) // watermark = a
			if got := sm.SliceMembers("requestMsgs", "r1"); len(got) != 0 {
				t.Fatalf("after reset: %v", got)
			}
			// New lifetime: a later message is visible again.
			b := put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
			got := sm.SliceMembers("requestMsgs", "r1")
			if len(got) != 1 || got[0] != b {
				t.Fatalf("new lifetime: %v", got)
			}
		})
	}
}

func TestRetention(t *testing.T) {
	ms, props, sm := setup(t, false)
	a := put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
	noSlice := put(t, ms, props, "crm", `<m>plain</m>`)

	// Unprocessed: never collected.
	if n, _ := collect(sm, "crm"); n != 0 {
		t.Fatalf("collected unprocessed: %d", n)
	}
	markProcessed(t, ms, a, noSlice)

	// a is in a live slice: retained. noSlice: removable.
	if len(sm.SlicesOf(a)) == 0 {
		t.Fatal("slice member must be retained")
	}
	if len(sm.SlicesOf(noSlice)) != 0 {
		t.Fatal("sliceless processed message must be removable")
	}
	n, err := collect(sm, "crm")
	if err != nil || n != 1 {
		t.Fatalf("gc: %d %v", n, err)
	}
	if _, ok := ms.Get(noSlice); ok {
		t.Fatal("collected message still visible")
	}
	if _, ok := ms.Get(a); !ok {
		t.Fatal("retained message lost")
	}

	// After reset, a becomes collectable.
	reset(sm, "requestMsgs", "r1", a)
	n, _ = collect(sm, "crm")
	if n != 1 {
		t.Fatalf("gc after reset: %d", n)
	}
	if _, ok := ms.Get(a); ok {
		t.Fatal("a should be gone")
	}
}

func TestMultiSliceRetention(t *testing.T) {
	// A message in two slices is retained until *both* are reset
	// (Sec. 2.3.3: "as long as it is contained in at least one slice").
	ms := openStore(t, t.TempDir(), false)
	defer ms.Close()
	props := property.NewManager()
	props.Define(&property.Def{Name: "p1", Type: xdm.TypeString, PerQueue: map[string]*xquery.Compiled{
		"q": xquery.MustCompile(`//a`, xquery.CompileOptions{}),
	}})
	props.Define(&property.Def{Name: "p2", Type: xdm.TypeString, PerQueue: map[string]*xquery.Compiled{
		"q": xquery.MustCompile(`//b`, xquery.CompileOptions{}),
	}})
	sm := NewManager(ms, graphOf(map[string]string{"s1": "p1", "s2": "p2"}, "q"))
	ms.CreateQueue("q", msgstore.Persistent, 0)

	id := put(t, ms, props, "q", `<m><a>x</a><b>y</b></m>`)
	markProcessed(t, ms, id)

	if n, _ := collect(sm, "q"); n != 0 {
		t.Fatal("member of two live slices")
	}
	reset(sm, "s1", "x", id)
	if n, _ := collect(sm, "q"); n != 0 {
		t.Fatal("still member of s2")
	}
	reset(sm, "s2", "y", id)
	if n, _ := collect(sm, "q"); n != 1 {
		t.Fatal("all slices reset: removable")
	}
}

// TestReopenNeedsNoRebuild: after a crash the slices are simply there again —
// membership is read off the reopened store, and replaying the persisted
// resets is the only start-up step.
func TestReopenNeedsNoRebuild(t *testing.T) {
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			ms := openStore(t, dir, mode.noIndex)
			props := requestIDProps("crm")
			ms.CreateQueue("crm", msgstore.Persistent, 0)

			put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
			put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
			other := put(t, ms, props, "crm", `<m><requestID>r2</requestID></m>`)

			// Persist a reset of r1 through the txn path; its watermark is
			// the ID high-water mark, so it covers all three messages.
			tx := ms.Begin()
			tx.RecordReset("requestMsgs", "r1")
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			later := put(t, ms, props, "crm", `<m><requestID>r1</requestID></m>`)
			ms.PageStore().CrashForTest()

			ms2 := openStore(t, dir, mode.noIndex)
			defer ms2.Close()
			ms2.CreateQueue("crm", msgstore.Persistent, 0)
			sm2 := NewManager(ms2, requestMsgs("crm"))
			if got := sm2.SliceMembers("requestMsgs", "r2"); len(got) != 1 || got[0] != other {
				t.Fatalf("slice r2 after reopen: %v", got)
			}
			events, err := ms2.ResetEvents()
			if err != nil || len(events) != 1 {
				t.Fatalf("reset events: %v %v", events, err)
			}
			for _, e := range events {
				sm2.Reset(e)
			}
			// The first two messages predate the persisted watermark.
			if got := sm2.SliceMembers("requestMsgs", "r1"); len(got) != 1 || got[0] != later {
				t.Fatalf("reset lost across restart: %v", got)
			}
		})
	}
}

func TestMaterializedAndMergedAgree(t *testing.T) {
	views := map[string][]msgstore.MsgID{}
	var want []msgstore.MsgID
	for _, mode := range modes {
		ms, props, sm := setup(t, mode.noIndex)
		want = want[:0]
		for i := 0; i < 30; i++ {
			id := put(t, ms, props, "crm", fmt.Sprintf(`<m><requestID>r%d</requestID></m>`, i%5))
			if i%5 == 3 {
				want = append(want, id)
			}
		}
		views[mode.name] = sm.SliceMembers("requestMsgs", "r3")
	}
	mat, merged := views["index-range"], views["queue-scan"]
	if len(mat) != len(want) || len(merged) != len(want) {
		t.Fatalf("sizes: mat=%d merged=%d want=%d", len(mat), len(merged), len(want))
	}
	for i := range want {
		if mat[i] != want[i] || merged[i] != want[i] {
			t.Fatalf("disagreement at %d: %v vs %v", i, mat, merged)
		}
	}
}
