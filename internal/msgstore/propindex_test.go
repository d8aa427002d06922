package msgstore

import (
	"fmt"
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
