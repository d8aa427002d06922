package slicing

import (
	"fmt"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

func setup(t *testing.T, materialized bool) (*msgstore.Store, *property.Manager, *Manager) {
	t.Helper()
	ms, err := msgstore.Open(t.TempDir(), msgstore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	props := property.NewManager()
	props.Define(&property.Def{
		Name: "requestID", Type: xdm.TypeString, Fixed: true,
		PerQueue: map[string]*xquery.Compiled{
			"crm":      xquery.MustCompile(`//requestID`, xquery.CompileOptions{}),
			"customer": xquery.MustCompile(`//requestID`, xquery.CompileOptions{}),
		},
	})
	sm := NewManager(ms, props, materialized)
	sm.Define("requestMsgs", "requestID")
	ms.CreateQueue("crm", msgstore.Persistent, 0)
	ms.CreateQueue("customer", msgstore.Persistent, 0)
	return ms, props, sm
}

func put(t *testing.T, ms *msgstore.Store, props *property.Manager, sm *Manager, queue, xml string) msgstore.MsgID {
	t.Helper()
	doc := xmldom.MustParse(xml)
	pv, err := props.Evaluate(queue, doc, nil, nil, nil, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	tx := ms.Begin()
	id, err := tx.Enqueue(queue, doc, pv, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sm.OnEnqueue(id, queue, pv)
	return id
}

func testMembership(t *testing.T, materialized bool) {
	ms, props, sm := setup(t, materialized)
	a := put(t, ms, props, sm, "crm", `<m><requestID>r1</requestID></m>`)
	b := put(t, ms, props, sm, "customer", `<m><requestID>r1</requestID></m>`)
	c := put(t, ms, props, sm, "crm", `<m><requestID>r2</requestID></m>`)

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

func TestMembershipMaterialized(t *testing.T) { testMembership(t, true) }
func TestMembershipMerged(t *testing.T)       { testMembership(t, false) }

func TestResetLifetimes(t *testing.T) {
	for _, mat := range []bool{true, false} {
		t.Run(fmt.Sprintf("materialized=%v", mat), func(t *testing.T) {
			ms, props, sm := setup(t, mat)
			a := put(t, ms, props, sm, "crm", `<m><requestID>r1</requestID></m>`)
			sm.Reset("requestMsgs", "r1", a) // watermark = a
			if got := sm.SliceMembers("requestMsgs", "r1"); len(got) != 0 {
				t.Fatalf("after reset: %v", got)
			}
			// New lifetime: a later message is visible again.
			b := put(t, ms, props, sm, "crm", `<m><requestID>r1</requestID></m>`)
			got := sm.SliceMembers("requestMsgs", "r1")
			if len(got) != 1 || got[0] != b {
				t.Fatalf("new lifetime: %v", got)
			}
		})
	}
}

func TestRetention(t *testing.T) {
	ms, props, sm := setup(t, true)
	a := put(t, ms, props, sm, "crm", `<m><requestID>r1</requestID></m>`)
	noSlice := put(t, ms, props, sm, "crm", `<m>plain</m>`)

	// Unprocessed: never collected.
	if n, _ := sm.CollectQueue("crm"); n != 0 {
		t.Fatalf("collected unprocessed: %d", n)
	}
	tx := ms.Begin()
	tx.MarkProcessed(a)
	tx.MarkProcessed(noSlice)
	tx.Commit()

	// a is in a live slice: retained. noSlice: removable.
	if sm.Removable(a) {
		t.Fatal("slice member must be retained")
	}
	if !sm.Removable(noSlice) {
		t.Fatal("sliceless processed message must be removable")
	}
	n, err := sm.CollectQueue("crm")
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
	sm.Reset("requestMsgs", "r1", a)
	n, _ = sm.CollectQueue("crm")
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
	ms, err := msgstore.Open(t.TempDir(), msgstore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	props := property.NewManager()
	props.Define(&property.Def{Name: "p1", Type: xdm.TypeString, PerQueue: map[string]*xquery.Compiled{
		"q": xquery.MustCompile(`//a`, xquery.CompileOptions{}),
	}})
	props.Define(&property.Def{Name: "p2", Type: xdm.TypeString, PerQueue: map[string]*xquery.Compiled{
		"q": xquery.MustCompile(`//b`, xquery.CompileOptions{}),
	}})
	sm := NewManager(ms, props, true)
	sm.Define("s1", "p1")
	sm.Define("s2", "p2")
	ms.CreateQueue("q", msgstore.Persistent, 0)

	id := put(t, ms, props, sm, "q", `<m><a>x</a><b>y</b></m>`)
	tx := ms.Begin()
	tx.MarkProcessed(id)
	tx.Commit()

	if sm.Removable(id) {
		t.Fatal("member of two live slices")
	}
	sm.Reset("s1", "x", id)
	if sm.Removable(id) {
		t.Fatal("still member of s2")
	}
	sm.Reset("s2", "y", id)
	if !sm.Removable(id) {
		t.Fatal("all slices reset: removable")
	}
}

func TestRebuildAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ms, err := msgstore.Open(dir, msgstore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	props := property.NewManager()
	props.Define(&property.Def{
		Name: "requestID", Type: xdm.TypeString, Fixed: true,
		PerQueue: map[string]*xquery.Compiled{
			"crm": xquery.MustCompile(`//requestID`, xquery.CompileOptions{}),
		},
	})
	sm := NewManager(ms, props, true)
	sm.Define("requestMsgs", "requestID")
	ms.CreateQueue("crm", msgstore.Persistent, 0)

	a := put(t, ms, props, sm, "crm", `<m><requestID>r1</requestID></m>`)
	put(t, ms, props, sm, "crm", `<m><requestID>r1</requestID></m>`)

	// Persist a reset of r1 up to message a, through the txn path.
	tx := ms.Begin()
	tx.RecordReset("requestMsgs", "r1")
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Note: this reset's watermark covers both messages (high-water mark).
	ms.Crash()

	ms2, err := msgstore.Open(dir, msgstore.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	ms2.CreateQueue("crm", msgstore.Persistent, 0)
	sm2 := NewManager(ms2, props, true)
	sm2.Define("requestMsgs", "requestID")
	if err := sm2.Rebuild(); err != nil {
		t.Fatal(err)
	}
	events, err := ms2.ResetEvents()
	if err != nil || len(events) != 1 {
		t.Fatalf("reset events: %v %v", events, err)
	}
	for _, e := range events {
		sm2.Reset(e.Slicing, e.Key, e.Watermark)
	}
	// Both messages predate the persisted watermark: slice empty.
	if got := sm2.SliceMembers("requestMsgs", "r1"); len(got) != 0 {
		t.Fatalf("reset lost across restart: %v", got)
	}
	_ = a
}

func TestMaterializedAndMergedAgree(t *testing.T) {
	ms, props, sm := setup(t, true)
	var want []msgstore.MsgID
	for i := 0; i < 30; i++ {
		id := put(t, ms, props, sm, "crm", fmt.Sprintf(`<m><requestID>r%d</requestID></m>`, i%5))
		if i%5 == 3 {
			want = append(want, id)
		}
	}
	mat := sm.SliceMembers("requestMsgs", "r3")
	sm.SetMaterialized(false)
	merged := sm.SliceMembers("requestMsgs", "r3")
	if len(mat) != len(want) || len(merged) != len(want) {
		t.Fatalf("sizes: mat=%d merged=%d want=%d", len(mat), len(merged), len(want))
	}
	for i := range want {
		if mat[i] != want[i] || merged[i] != want[i] {
			t.Fatalf("disagreement at %d: %v vs %v", i, mat, merged)
		}
	}
}
