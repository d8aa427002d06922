package msgstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// countingVFS counts the bytes read from the data file.
type countingVFS struct {
	store.VFS
	dataReads atomic.Int64
}

type countingFile struct {
	store.File
	v *countingVFS
}

func (v *countingVFS) OpenFile(path string) (store.File, error) {
	f, err := v.VFS.OpenFile(path)
	if err != nil || filepath.Base(path) != "data.db" {
		return f, err
	}
	return countingFile{f, v}, nil
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.v.dataReads.Add(int64(n))
	return n, err
}

// enqueueAlternating commits n messages of about size bytes into each of
// the queues, in transactions of per messages that take turns between the
// queues, so that the queues' pages interleave in the data file. Message i
// of a queue carries the properties customer=c<i%5> and n=i.
func enqueueAlternating(t *testing.T, ms *Store, queues []string, n, per, size int) {
	t.Helper()
	filler := strings.Repeat("x", size)
	for i := 0; i < n; i += per {
		for _, q := range queues {
			tx := ms.Begin()
			for j := i; j < min(i+per, n); j++ {
				doc := xmldom.MustParse(fmt.Sprintf(`<m q=%q i="%d">%s</m>`, q, j, filler))
				props := map[string]xdm.Value{"customer": xdm.NewString(fmt.Sprint("c", j%5)), "n": xdm.NewInteger(int64(j))}
				if err := tx.Enqueue(q, doc, props, time.Unix(1_700_000_000, 0)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestMsgstoreOpenReadsDataFileOnce pins the one-read reopen: msgstore.Open
// loads its queues from the page store's open pass, so a clean reopen of
// two queues whose pages interleave reads the data file once. The slack
// covers the header, read twice, the catalog page, which is read before
// the pass and again in it, and the pages of the reset and session heaps,
// which Store.Scan reads.
func TestMsgstoreOpenReadsDataFileOnce(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Store.SyncCommits = false
	ms, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	queues := []string{"a", "b"}
	for _, q := range queues {
		if _, err := ms.CreateQueue(q, Persistent, 0); err != nil {
			t.Fatal(err)
		}
	}
	enqueueAlternating(t, ms, queues, 300, 5, 2000)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 100*store.PageSize {
		t.Fatalf("data file of %d pages is too small to tell one read from two", st.Size()/store.PageSize)
	}

	vfs := &countingVFS{VFS: store.OSFileSystem()}
	opts.Store.VFS = vfs
	ms, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	for _, q := range queues {
		if msgs, _ := ms.Messages(q); len(msgs) != 300 {
			t.Fatalf("queue %s holds %d messages after the reopen, want 300", q, len(msgs))
		}
	}
	const slack = 5 * store.PageSize
	if got := vfs.dataReads.Load(); got > st.Size()+slack {
		t.Fatalf("Open read %d bytes of a %d-byte data file, want at most %d", got, st.Size(), st.Size()+slack)
	}
}

// loadedMsg is what a reopen must rebuild of one message.
type loadedMsg struct {
	queue     string
	processed bool
	props     map[string]string
}

// scanLoad is the former queue load, kept as the reference the open pass's
// load is held to: it reads each queue's payload and status heaps through
// Store.Scan and joins them through a map of the whole status heap. It
// returns the messages by id and the property-index postings they imply.
func scanLoad(t *testing.T, ms *Store) (map[MsgID]loadedMsg, []string) {
	t.Helper()
	msgs := map[MsgID]loadedMsg{}
	var postings []string
	for _, name := range ms.QueueNames() {
		q := ms.getQueue(name)
		if q.Mode != Persistent {
			continue
		}
		statuses := map[MsgID]byte{}
		err := ms.ps.Scan(q.statusHeap, func(_ store.RID, rec []byte) bool {
			statuses[MsgID(binary.LittleEndian.Uint64(rec))] = rec[8]
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		err = ms.ps.Scan(q.heap, func(rid store.RID, rec []byte) bool {
			m, err := decodeMessage(rec)
			if err != nil {
				t.Fatalf("record %s of q:%s: %v", rid, name, err)
			}
			props := map[string]string{}
			for k, v := range m.props {
				props[k] = v.StringValue()
				if indexableProp(k) {
					postings = append(postings, string(store.IndexKey(uint64(m.id), k, v.StringValue())))
				}
			}
			msgs[m.id] = loadedMsg{queue: name, processed: statuses[m.id]&statusProcessed != 0, props: props}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(postings)
	return msgs, postings
}

// checkLoad compares the reopened store's queues and property index with
// scanLoad's reference.
func checkLoad(t *testing.T, ms *Store) {
	t.Helper()
	want, wantPostings := scanLoad(t, ms)
	got := map[MsgID]loadedMsg{}
	for _, name := range ms.QueueNames() {
		q := ms.getQueue(name)
		if !slices.IsSortedFunc(q.msgs, func(a, b *msgMeta) int { return cmp.Compare(a.id, b.id) }) {
			t.Fatalf("queue %s: messages out of id order", name)
		}
		for _, m := range q.msgs {
			props := map[string]string{}
			for k, v := range m.propsMap() {
				props[k] = v.StringValue()
			}
			got[m.id] = loadedMsg{queue: name, processed: m.processed.Load(), props: props}
			if ms.lookup(m.id) != m {
				t.Fatalf("message %d of queue %s is not found by id", m.id, name)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("reopen loaded %d messages, the heaps hold %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.queue != w.queue || g.processed != w.processed || !maps.Equal(g.props, w.props) {
			t.Fatalf("message %d: loaded %+v, the heaps hold %+v", id, g, w)
		}
	}
	var postings []string
	ms.propIndex.Scan(nil, nil, func(k, _ []byte) bool {
		postings = append(postings, string(k))
		return true
	})
	if !slices.Equal(postings, wantPostings) {
		t.Fatalf("property index holds %d postings, the heaps imply %d", len(postings), len(wantPostings))
	}
}

// backwardLinks counts the steps of a heap's chain, in the order Store.Scan
// visits its records, that go to a lower page.
func backwardLinks(t testing.TB, ms *Store, heap string) int {
	t.Helper()
	h, ok := ms.ps.Heap(heap)
	if !ok {
		t.Fatalf("no heap %s", heap)
	}
	n, last := 0, store.PageID(0)
	err := ms.ps.Scan(h, func(rid store.RID, _ []byte) bool {
		if rid.Page < last {
			n++
		}
		last = rid.Page
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReopenLoadsBackwardLinkedChains reopens queues whose chains link back
// to reused pages: retention empties interior pages, which return to the
// free list, and later enqueues append them behind pages with higher ids,
// so the open pass meets them before it knows their heap. The messages,
// their processed flags and properties, and the property index must equal
// what the heaps hold, read through Store.Scan.
func TestReopenLoadsBackwardLinkedChains(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Store.SyncCommits = false
	ms, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	queues := []string{"a", "b"}
	for _, q := range queues {
		if _, err := ms.CreateQueue(q, Persistent, 0); err != nil {
			t.Fatal(err)
		}
	}
	enqueueAlternating(t, ms, queues, 80, 4, 1500)
	// Process and collect the middle of each queue: its pages empty.
	for _, q := range queues {
		msgs, _ := ms.Messages(q)
		var done []MsgID
		for _, m := range msgs[10:70] {
			done = append(done, m.ID)
		}
		tx := ms.Begin()
		if err := tx.MarkProcessedAll(done); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := removeNow(ms, q, done); err != nil {
			t.Fatal(err)
		}
	}
	enqueueAlternating(t, ms, queues, 40, 4, 1500)
	big := "<m>" + strings.Repeat("<line>overflowing payload</line>", 600) + "</m>"
	for _, q := range queues {
		id := enqueue(t, ms, q, big, map[string]xdm.Value{"customer": xdm.NewString("c9")})
		tx := ms.Begin()
		if err := tx.MarkProcessed(id); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	links := 0
	for _, q := range queues {
		links += backwardLinks(t, ms, "q:"+q)
	}
	if links == 0 {
		t.Fatal("no queue chain links back to a lower page")
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		ms, err = Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkLoad(t, ms)
		if err := ms.VerifyIntegrity(); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			enqueueAlternating(t, ms, queues, 12, 3, 1500)
		}
		if err := ms.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
