package msgstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"demaq/internal/property"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

func propIDs(ms *Store, prop, value string) []MsgID {
	return ms.PropertyIDsRange(prop, value, 0, ^MsgID(0), nil)
}

// TestPropertyIndexBasics covers insert-on-publish, value isolation,
// ascending order, range windows, and delete-on-Remove.
func TestPropertyIndexBasics(t *testing.T) {
	ms := openTemp(t)
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	var ids []MsgID
	for i := 0; i < 10; i++ {
		id := enqueue(t, ms, "q", `<m/>`, map[string]xdm.Value{
			"customer": xdm.NewString(fmt.Sprintf("c%d", i%2)),
			"region":   xdm.NewString("emea"),
		})
		ids = append(ids, id)
	}
	if !ms.PropertyIndexEnabled() {
		t.Fatal("index should be on by default")
	}
	c0 := propIDs(ms, "customer", "c0")
	if len(c0) != 5 {
		t.Fatalf("customer=c0: %v", c0)
	}
	for i := 1; i < len(c0); i++ {
		if c0[i] <= c0[i-1] {
			t.Fatalf("not ascending: %v", c0)
		}
	}
	if got := propIDs(ms, "customer", "c2"); len(got) != 0 {
		t.Fatalf("unknown value matched: %v", got)
	}
	if got := propIDs(ms, "region", "emea"); len(got) != 10 {
		t.Fatalf("region: %v", got)
	}

	// Range window [ids[2], ids[7]].
	win := ms.PropertyIDsRange("region", "emea", ids[2], ids[7], nil)
	if len(win) != 6 || win[0] != ids[2] || win[5] != ids[7] {
		t.Fatalf("window: %v", win)
	}
	// Open-ended upper bound.
	all := ms.PropertyIDsRange("region", "emea", 0, ^MsgID(0), nil)
	if len(all) != 10 {
		t.Fatalf("open window: %v", all)
	}

	// After, mid-stream.
	tail := ms.PropertyIDsRange("region", "emea", ids[6]+1, ^MsgID(0), nil)
	if len(tail) != 3 || tail[0] != ids[7] {
		t.Fatalf("after: %v", tail)
	}

	// Remove drops postings.
	if err := removeNow(ms, "q", ids[:4]); err != nil {
		t.Fatal(err)
	}
	if got := propIDs(ms, "region", "emea"); len(got) != 6 || got[0] != ids[4] {
		t.Fatalf("after remove: %v", got)
	}
}

// TestPropertyIndexRebuild restarts the store and checks the index is
// reconstructed from the heaps like the rest of the derived state.
func TestPropertyIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	var ids []MsgID
	for i := 0; i < 6; i++ {
		ids = append(ids, enqueue(t, ms, "q", `<m/>`, map[string]xdm.Value{
			"k": xdm.NewString("v"),
		}))
	}
	if err := removeNow(ms, "q", ids[:2]); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	got := ms2.PropertyIDsRange("k", "v", 0, ^MsgID(0), nil)
	if len(got) != 4 || got[0] != ids[2] {
		t.Fatalf("rebuilt index: %v (want %v)", got, ids[2:])
	}
}

// TestPropertyIndexDisabled pins the scan-baseline knob: no postings, no
// results, and PropertyIndexEnabled reports false so callers fall back.
func TestPropertyIndexDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.NoPropertyIndex = true
	ms, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, err := ms.CreateQueue("q", Transient, 0); err != nil {
		t.Fatal(err)
	}
	enqueue(t, ms, "q", `<m/>`, map[string]xdm.Value{"k": xdm.NewString("v")})
	if ms.PropertyIndexEnabled() {
		t.Fatal("index should be disabled")
	}
	if got := propIDs(ms, "k", "v"); got != nil {
		t.Fatalf("disabled index returned %v", got)
	}
}

// TestPropertyIndexSkipsSystemProps pins that "demaq:"-namespaced properties
// (near-unique timestamps, rule provenance) stay out of the index.
func TestPropertyIndexSkipsSystemProps(t *testing.T) {
	ms := openTemp(t)
	if _, err := ms.CreateQueue("q", Transient, 0); err != nil {
		t.Fatal(err)
	}
	tx := ms.Begin()
	if err := tx.Enqueue("q", xmldom.MustParse(`<m/>`), map[string]xdm.Value{
		"demaq:rule": xdm.NewString("r1"),
		"user":       xdm.NewString("u1"),
	}, time.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := propIDs(ms, "demaq:rule", "r1"); len(got) != 0 {
		t.Fatalf("system property indexed: %v", got)
	}
	if got := propIDs(ms, "user", "u1"); len(got) != 1 {
		t.Fatalf("user property missing: %v", got)
	}
}

// TestPropertyIndexPostsMultiValuedMarker: the multi-valued marker is the
// one system property in the index, and QueueDocsAmong answers an
// index-probed qs:queue() read from postings and the floor.
func TestPropertyIndexPostsMultiValuedMarker(t *testing.T) {
	ms := openTemp(t)
	for _, q := range []string{"q", "other"} {
		if _, err := ms.CreateQueue(q, Persistent, 0); err != nil {
			t.Fatal(err)
		}
	}
	marker := property.MultiValued("key")
	tx := ms.Begin()
	for i, props := range []map[string]xdm.Value{
		{"key": xdm.NewString("a")},
		{"key": xdm.NewString("b"), marker: xdm.NewBool(true)},
		{"key": xdm.NewString("b")},
		{"key": xdm.NewString("a")},
	} {
		queue := "q"
		if i == 3 {
			queue = "other"
		}
		if err := tx.Enqueue(queue, xmldom.MustParse(fmt.Sprintf(`<m i="%d"/>`, i)), props, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := propIDs(ms, marker, "true"); len(got) != 1 || got[0] != out[1].ID {
		t.Fatalf("marker postings: %v", got)
	}
	ids := append(propIDs(ms, "key", "a"), propIDs(ms, marker, "true")...)
	for _, tc := range []struct {
		floor MsgID
		want  string
	}{
		{0, "01"},              // postings only; message 3 is in another queue
		{out[2].ID + 1, "012"}, // every message of q below the floor
		{out[1].ID, "01"},      // message 0 below the floor, 1 posted
		{out[0].ID + 1, "01"},  // a posting below the floor is read once
	} {
		docs, err := ms.QueueDocsAmong("q", append([]MsgID(nil), ids...), tc.floor)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, d := range docs {
			i, _ := d.Root().Attr("i")
			got += i
		}
		if got != tc.want {
			t.Errorf("floor %d: documents %q, want %q", tc.floor, got, tc.want)
		}
	}
}

// propsView renders a property map with each value's type, for comparing
// the maps of two stores.
func propsView(props map[string]xdm.Value) string {
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s(%s) ", k, props[k].T, props[k].StringValue())
	}
	return b.String()
}

// storeView renders every message of the queues but skip as Messages, Get
// and Property return it.
func storeView(t *testing.T, ms *Store, skip MsgID, queues ...string) string {
	t.Helper()
	var b strings.Builder
	for _, q := range queues {
		msgs, err := ms.Messages(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs {
			if m.ID == skip {
				continue
			}
			g, ok := ms.Get(m.ID)
			if !ok {
				t.Fatalf("Get(%d) misses a listed message", m.ID)
			}
			c, _ := ms.Property(m.ID, "customer")
			fmt.Fprintf(&b, "%s %d %s processed=%v | %s| %s | customer=%s\n", q, m.ID,
				m.Enqueued.UTC().Format(time.RFC3339Nano), m.Processed, propsView(m.Props), propsView(g.Props), c.StringValue())
		}
	}
	return b.String()
}

// TestReopenDecodesPropertiesOnFirstUse restarts a store whose messages
// carry typed properties and checks that Messages, Get and Property return
// what they returned before, that the bulk-built index answers probes and
// keeps working under inserts and removals, and that a stored property
// whose cast changes its lexical form (xs:integer "007") reads and is
// indexed in its cast form.
func TestReopenDecodesPropertiesOnFirstUse(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"a", "b"} {
		if _, err := ms.CreateQueue(q, Persistent, 0); err != nil {
			t.Fatal(err)
		}
	}
	var ids []MsgID
	for i := 0; i < 300; i++ {
		var props map[string]xdm.Value
		if i%10 != 0 {
			props = map[string]xdm.Value{
				"customer":      xdm.NewString(fmt.Sprintf("c%d", i%7)),
				"n":             xdm.NewInteger(int64(i)),
				"price":         xdm.NewDecimal(float64(i) * 1.5),
				"demaq:created": xdm.NewString("rule"),
			}
		}
		ids = append(ids, enqueue(t, ms, []string{"a", "b"}[i%2], `<m/>`, props))
	}
	tx := ms.Begin()
	if err := tx.MarkProcessedAll(ids[:50]); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A record whose integer property is stored as "007": appendMessageRecord
	// always writes the canonical form, so write the record by hand.
	odd := ms.NextID()
	ms.assignAbove(odd)
	rec := ms.appendMessageRecord(nil, &pendingEnqueue{id: odd, at: time.Now(), doc: xmldom.MustParse(`<m/>`),
		props: map[string]xdm.Value{"n": xdm.NewString("007")}})
	rec[19+2+len("n")] = byte(xdm.TypeInteger)
	q, _ := ms.Queue("a")
	pt := ms.PageStore().Begin()
	if _, err := pt.Insert(q.heap, rec); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Insert(q.statusHeap, appendStatusRecord(nil, odd, statusByte(false))); err != nil {
		t.Fatal(err)
	}
	if err := pt.Commit(); err != nil {
		t.Fatal(err)
	}
	before := storeView(t, ms, odd, "a", "b")
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	ms, err = Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	v, ok := ms.Property(odd, "n")
	if !ok || v.T != xdm.TypeInteger || v.StringValue() != "7" {
		t.Fatalf("stored xs:integer \"007\" reads %v %s(%q)", ok, v.T, v.StringValue())
	}
	if got := propIDs(ms, "n", "7"); len(got) != 2 || got[1] != odd {
		t.Fatalf("n=7 postings %v, want [%d %d]", got, ids[7], odd)
	}
	if got := propIDs(ms, "n", "007"); len(got) != 0 {
		t.Fatalf("the stored lexical form is posted: %v", got)
	}
	var c3 []MsgID
	for i, id := range ids {
		if i%7 == 3 && i%10 != 0 {
			c3 = append(c3, id)
		}
	}
	if got := propIDs(ms, "customer", "c3"); fmt.Sprint(got) != fmt.Sprint(c3) {
		t.Fatalf("customer=c3 postings %v, want %v", got, c3)
	}
	if after := storeView(t, ms, odd, "a", "b"); after != before {
		t.Fatalf("restart changed what the store reads:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	var processedA []MsgID // queue a holds the even-numbered messages
	for i := 0; i < 50; i += 2 {
		processedA = append(processedA, ids[i])
	}
	if err := removeNow(ms, "a", processedA); err != nil {
		t.Fatal(err)
	}
	enqueue(t, ms, "b", `<m/>`, map[string]xdm.Value{"customer": xdm.NewString("c3")})
	if err := ms.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFirstUseOfLoadedProperties has several readers make the
// first use of the same loaded messages' properties at once, through Get,
// Property and Messages: under -race the map each message publishes on
// first use is built and handed out cleanly, and every reader sees it.
func TestConcurrentFirstUseOfLoadedProperties(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	var ids []MsgID
	for i := 0; i < 20; i++ {
		ids = append(ids, enqueue(t, ms, "q", `<m/>`, map[string]xdm.Value{
			"customer": xdm.NewString(fmt.Sprintf("c%d", i)), "n": xdm.NewInteger(int64(i)),
		}))
	}
	want := storeView(t, ms, 0, "q")
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if ms, err = Open(dir, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-start
			for i, id := range ids {
				switch r % 3 {
				case 0:
					if v, ok := ms.Property(id, "n"); !ok || v.StringValue() != fmt.Sprint(i) {
						t.Errorf("Property(%d, n) = %q, %v", id, v.StringValue(), ok)
					}
				case 1:
					if m, ok := ms.Get(id); !ok || m.Props["customer"].StringValue() != fmt.Sprintf("c%d", i) {
						t.Errorf("Get(%d) = %v, %v", id, m.Props, ok)
					}
				case 2:
					if _, err := ms.Messages("q"); err != nil {
						t.Error(err)
					}
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	if got := storeView(t, ms, 0, "q"); got != want {
		t.Fatalf("after concurrent first use:\n%s\nwant:\n%s", got, want)
	}
}
