package msgstore

import (
	"slices"
	"strings"
	"testing"
	"time"

	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// TestStatusSideHeapKeepsPayloadImmutable pins the side-heap contract:
// marking a message processed touches only its status record, never the
// payload record, so payload pages written at enqueue are never dirtied
// again.
func TestStatusSideHeapKeepsPayloadImmutable(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ms.CreateQueue("q", Persistent, 0)
	tx := ms.Begin()
	tx.Enqueue("q", xmldom.MustParse(`<m>x</m>`), map[string]xdm.Value{"k": xdm.NewString("v")}, time.Now())
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	id := out[0].ID
	m := ms.lookup(id)
	if m.statusRID == (store.RID{}) {
		t.Fatal("new message has no status side-heap record")
	}
	before, err := ms.ps.Read(m.rid)
	if err != nil {
		t.Fatal(err)
	}
	tx = ms.Begin()
	tx.MarkProcessed(id)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := ms.ps.Read(m.rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("payload record changed by MarkProcessed; status must live in the side-heap")
	}
	srec, err := ms.ps.Read(m.statusRID)
	if err != nil {
		t.Fatal(err)
	}
	if len(srec) != statusRecSize || srec[8]&statusProcessed == 0 {
		t.Fatalf("status record not updated: % x", srec)
	}
}

// TestOrphanStatusIDsNotReused: Remove deletes payloads, then status
// records, in two commits. A crash between them leaves an orphan status
// record whose id no payload holds any more; the ids handed out after the
// restart must start above it, or a new message would share the orphan's id
// and could come back processed from the next open.
func TestOrphanStatusIDsNotReused(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ms.CreateQueue("q", Persistent, 0)
	keep := enqueue(t, ms, "q", `<m>keep</m>`, nil)
	top := enqueue(t, ms, "q", `<m>top</m>`, nil)
	tx := ms.Begin()
	tx.MarkProcessed(top)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The first half of Remove(top): its payload only.
	if err := ms.ps.BatchDelete(ms.getQueue("q").heap, []store.RID{ms.lookup(top).rid}); err != nil {
		t.Fatal(err)
	}
	ms.PageStore().CrashForTest()

	ms, err = Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	fresh := enqueue(t, ms, "q", `<m>fresh</m>`, nil)
	if fresh <= top {
		t.Fatalf("new message got id %d, at or below the orphan status record's %d", fresh, top)
	}
	ms.PageStore().CrashForTest()

	ms, err = Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if err := ms.VerifyIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := unprocessedIDs(ms, "q"); !slices.Equal(got, []MsgID{keep, fresh}) {
		t.Fatalf("unprocessed after the second reopen: %v, want [%d %d]", got, keep, fresh)
	}
}

// TestLoadersFailLoudly: a record the loaders cannot use is a message, a
// processed flag or a master-data document lost. Open refuses the store and
// names the heap and the record instead of skipping it.
func TestLoadersFailLoudly(t *testing.T) {
	for _, tc := range []struct {
		name string
		heap string
		// corrupt damages the store and returns the RID the error must name.
		corrupt func(t *testing.T, ms *Store) store.RID
	}{
		{"undecodable payload", "q:q", func(t *testing.T, ms *Store) store.RID {
			return insertRaw(t, ms, "q:q", []byte{statusBinaryPayload, 1, 2, 3})
		}},
		{"status record of the wrong size", "s:q", func(t *testing.T, ms *Store) store.RID {
			return insertRaw(t, ms, "s:q", appendStatusRecord(nil, 99, statusByte(false))[:5])
		}},
		{"payload without status record", "q:q", func(t *testing.T, ms *Store) store.RID {
			m := ms.lookup(enqueue(t, ms, "q", `<m>x</m>`, nil))
			if err := ms.ps.BatchDelete(m.q.statusHeap, []store.RID{m.statusRID}); err != nil {
				t.Fatal(err)
			}
			return m.rid
		}},
		{"message id twice", "q:q", func(t *testing.T, ms *Store) store.RID {
			m := ms.lookup(enqueue(t, ms, "q", `<m>x</m>`, nil))
			rec, err := ms.ps.Read(m.rid)
			if err != nil {
				t.Fatal(err)
			}
			return insertRaw(t, ms, "q:q", rec)
		}},
		{"undecodable session record", sessionsHeapName, func(t *testing.T, ms *Store) store.RID {
			return insertRaw(t, ms, sessionsHeapName, []byte("short"))
		}},
		{"undecodable collection document", "c:rates", func(t *testing.T, ms *Store) store.RID {
			if err := ms.CreateCollection("rates"); err != nil {
				t.Fatal(err)
			}
			return insertRaw(t, ms, "c:rates", []byte(`<rate>1.09</rate>`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ms, err := Open(dir, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ms.CreateQueue("q", Persistent, 0)
			enqueue(t, ms, "q", `<m>ok</m>`, nil)
			rid := tc.corrupt(t, ms)
			if err := ms.Close(); err != nil {
				t.Fatal(err)
			}
			ms, err = Open(dir, DefaultOptions())
			if err == nil {
				ms.Close()
				t.Fatal("the store opened")
			}
			if want := "record " + rid.String() + " of " + tc.heap; !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

// insertRaw commits one record into a heap as it is, bypassing the encoders.
func insertRaw(t *testing.T, ms *Store, heap string, rec []byte) store.RID {
	t.Helper()
	h, ok := ms.ps.Heap(heap)
	if !ok {
		t.Fatalf("no heap %s", heap)
	}
	pt := ms.ps.Begin()
	rid, err := pt.Insert(h, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := pt.Commit(); err != nil {
		t.Fatal(err)
	}
	return rid
}
