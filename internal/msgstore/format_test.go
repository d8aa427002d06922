package msgstore

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

const formatTestDoc = `<order xmlns:p="urn:proc"><p:item qty="3">widget &amp; bolt</p:item><!--note--><state>open</state></order>`

// TestBinaryPayloadRoundTrip exercises the default storage format end to
// end: enqueue parses once and persists the encoded tree; a cold-cache Doc
// is a structural decode that reproduces the exact tree and wire text.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	want := xmldom.MustParse(formatTestDoc)
	id := enqueue(t, ms, "q", formatTestDoc, map[string]xdm.Value{"k": xdm.NewString("v")})

	ms.FlushDocCache()
	doc, err := ms.Doc(id)
	if err != nil {
		t.Fatal(err)
	}
	if !xmldom.DeepEqual(want, doc) {
		t.Fatalf("rehydrated tree differs:\nwant %s\ngot  %s", xmldom.Serialize(want), xmldom.Serialize(doc))
	}
	if a, b := xmldom.Serialize(want), xmldom.Serialize(doc); a != b {
		t.Fatalf("wire text changed: %q vs %q", a, b)
	}
	st := ms.Stats()
	if st.PayloadEncodedBytes == 0 {
		t.Fatalf("no encoded payload bytes accounted: %+v", st)
	}
	if st.PayloadTextBytes != 0 {
		t.Fatalf("text bytes accounted in binary mode: %+v", st)
	}
	if st.DocCacheMisses == 0 {
		t.Fatalf("cold read did not count a cache miss: %+v", st)
	}

	// The processed write rewrites the status byte; the format bit must
	// survive it, across a crash-recovery reopen.
	tx := ms.Begin()
	tx.MarkProcessed(id)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ms.Close()
	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	m, ok := ms2.Get(id)
	if !ok || !m.Processed {
		t.Fatalf("processed flag lost across reopen: %+v", m)
	}
	doc, err = ms2.Doc(id)
	if err != nil {
		t.Fatal(err)
	}
	if !xmldom.DeepEqual(want, doc) {
		t.Fatal("rehydration after reopen differs")
	}
}

// TestDocCacheCounters checks hit/miss/eviction accounting and the
// configured capacity surfacing through Stats.
func TestDocCacheCounters(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheDocs = 2
	ms, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	var ids []MsgID
	for i := 0; i < 3; i++ {
		ids = append(ids, enqueue(t, ms, "q", `<m><v>x</v></m>`, nil))
	}
	base := ms.Stats()
	if base.DocCacheCap != 2 {
		t.Fatalf("capacity not surfaced: %+v", base)
	}
	// Publishing through the cache (capacity 2) evicted the oldest of the
	// three enqueued docs.
	if base.DocCacheEvictions == 0 {
		t.Fatalf("expected evictions at capacity 2: %+v", base)
	}
	if _, err := ms.Doc(ids[2]); err != nil { // resident → hit
		t.Fatal(err)
	}
	if st := ms.Stats(); st.DocCacheHits != base.DocCacheHits+1 {
		t.Fatalf("hit not counted: %+v", st)
	}
	if _, err := ms.Doc(ids[0]); err != nil { // evicted → miss + decode
		t.Fatal(err)
	}
	if st := ms.Stats(); st.DocCacheMisses != base.DocCacheMisses+1 {
		t.Fatalf("miss not counted: %+v", st)
	}
	ms.FlushDocCache()
	if st := ms.Stats(); st.DocCacheSize != 0 {
		t.Fatalf("flush left %d entries", st.DocCacheSize)
	}
}

// TestCollectionsBinaryFormat checks master-data collections persist in
// the binary encoding and recover across a reopen.
func TestCollectionsBinaryFormat(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.CreateCollection("rates"); err != nil {
		t.Fatal(err)
	}
	want := xmldom.MustParse(`<rate cur="EUR">1.09</rate>`)
	if err := ms.AddToCollection("rates", want); err != nil {
		t.Fatal(err)
	}
	if st := ms.Stats(); st.PayloadEncodedBytes == 0 {
		t.Fatalf("collection write not accounted as encoded: %+v", st)
	}
	ms.Close()
	ms, err = Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	docs := ms.Collection("rates")
	if len(docs) != 1 || !xmldom.DeepEqual(want, docs[0]) {
		t.Fatalf("collection recovery differs: %d docs", len(docs))
	}
}

// TestOnDiskFormatUnchanged compares what the store writes, byte for byte,
// with hex captured at the commit before the text-payload, in-place-status
// and pre-slot-header readers were retired — a change that deleted only
// readers, so it had to leave every written byte alone. A difference here is
// a format change: it needs a version bump and a way to open old stores.
// Slot A is the one the reopen's checkpoint writes; its redo offset is the
// log position after exactly this sequence of writes.
func TestOnDiskFormatUnchanged(t *testing.T) {
	want := map[string]string{
		"tree-encoded record":     "02010000000000000015cd853dfe9c971702000800637573746f6d657201040061636d650500746f74616c03020034325500000001040000056f726465720875726e3a70726f630170046974656d00000371747900000573746174650801010200000302010102013301040d776964676574202620626f6c7405046e6f74650203000104046f70656e",
		"pre-encoded record":      "02020000000000000015cd853dfe9c971702000800637573746f6d657201040061636d650500746f74616c03020034325500000001040000056f726465720875726e3a70726f630170046974656d00000371747900000573746174650801010200000302010102013301040d776964676574202620626f6c7405046e6f74650203000104046f70656e",
		"status record":           "010000000000000002",
		"processed status record": "010000000000000003",
		"header slot A":           "0300000000000000dca4000000000000896b2527",
	}
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_700_000_000, 123_456_789)
	props := map[string]xdm.Value{"customer": xdm.NewString("acme"), "total": xdm.NewInteger(42)}
	enc, err := xmldom.StreamEncode(nil, []byte(formatTestDoc), nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := ms.Begin()
	if err := tx.Enqueue("q", xmldom.MustParse(formatTestDoc), props, at); err != nil {
		t.Fatal(err)
	}
	if err := tx.EnqueueEncoded("q", enc, xmldom.MustParse(formatTestDoc), 0, nil, props, at); err != nil {
		t.Fatal(err)
	}
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	treeID, encID := out[0].ID, out[1].ID
	read := func(rid store.RID) string {
		t.Helper()
		b, err := ms.ps.Read(rid)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(b)
	}
	tree, pre := ms.lookup(treeID), ms.lookup(encID)
	got := map[string]string{
		"tree-encoded record": read(tree.rid),
		"pre-encoded record":  read(pre.rid),
		"status record":       read(tree.statusRID),
	}
	tx = ms.Begin()
	tx.MarkProcessed(treeID)
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got["processed status record"] = read(tree.statusRID)
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if ms, err = Open(dir, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	hdr, err := os.ReadFile(filepath.Join(dir, "data.db"))
	if err != nil {
		t.Fatal(err)
	}
	got["header slot A"] = hex.EncodeToString(hdr[64:84])
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s changed:\nwant %s\ngot  %s", k, w, got[k])
		}
	}
}

// FuzzMessageRecord feeds the message-record reader arbitrary bytes, seeded
// with the builder's output for both payload kinds, a typed property whose
// cast changes its lexical form, and repeated and unordered names:
// decodeMessage, payloadOffset and the open pass never panic; the open
// pass accepts exactly the records decodeMessage accepts, builds the same
// property map on first use and gathers the postings of decodeMessage's
// map; and whenever decodeMessage accepts a record, payloadOffset finds its
// payload inside it.
func FuzzMessageRecord(f *testing.F) {
	props := map[string]xdm.Value{"customer": xdm.NewString("acme"), "total": xdm.NewInteger(42)}
	enc, err := xmldom.StreamEncode(nil, []byte(formatTestDoc), nil)
	if err != nil {
		f.Fatal(err)
	}
	var ms Store
	at := time.Unix(1_700_000_000, 0)
	for _, pe := range []*pendingEnqueue{
		{id: 1, at: at, props: props, doc: xmldom.MustParse(formatTestDoc)},
		{id: 2, at: at, props: props, enc: enc},
		{id: 3, at: at, enc: enc},
	} {
		f.Add(ms.appendMessageRecord(nil, pe))
	}
	// "n" as xs:integer "007"; then "b", "a", "b": out of order, repeated.
	rec := ms.appendMessageRecord(nil, &pendingEnqueue{id: 4, at: at, enc: enc,
		props: map[string]xdm.Value{"n": xdm.NewString("007")}})
	rec[19+2+1] = byte(xdm.TypeInteger)
	f.Add(rec)
	rec = binary.LittleEndian.AppendUint64([]byte{statusByte(false)}, 5)
	rec = binary.LittleEndian.AppendUint64(rec, uint64(at.UnixNano()))
	rec = binary.LittleEndian.AppendUint16(rec, 3)
	for _, p := range []string{"b1", "a2", "b3"} {
		rec = binary.LittleEndian.AppendUint16(append(binary.LittleEndian.AppendUint16(rec, 1), p[0], byte(xdm.TypeString)), 1)
		rec = append(rec, p[1])
	}
	f.Add(append(binary.LittleEndian.AppendUint32(rec, uint32(len(enc))), enc...))

	f.Fuzz(func(t *testing.T, rec []byte) {
		po := payloadOffset(rec)
		l := &loader{index: true}
		lm, lerr := l.load(rec)
		dm, err := decodeMessage(rec)
		if (lerr == nil) != (err == nil) {
			t.Fatalf("decodeMessage error %v, open pass error %v", err, lerr)
		}
		if err != nil {
			return
		}
		if po < 4 || po > len(rec) {
			t.Fatalf("decoded record of %d bytes, payload offset %d", len(rec), po)
		}
		if n := int(binary.LittleEndian.Uint32(rec[po-4:])); n > len(rec)-po {
			t.Fatalf("decoded record of %d bytes, payload of %d bytes at %d", len(rec), n, po)
		}
		if lm.id != dm.id || !lm.enqueued.Equal(dm.enqueued) {
			t.Fatalf("open pass read message %d at %v, decodeMessage %d at %v", lm.id, lm.enqueued, dm.id, dm.enqueued)
		}
		if got, want := propsView(lm.propsMap()), propsView(dm.props); got != want {
			t.Fatalf("map built on first use %q, decodeMessage's %q", got, want)
		}
		var want []string
		for k, v := range dm.props {
			if indexableProp(k) {
				want = append(want, string(store.IndexKey(uint64(dm.id), k, v.StringValue())))
			}
		}
		var got []string
		for _, k := range l.keys {
			got = append(got, string(k))
		}
		sort.Strings(want)
		sort.Strings(got)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("open pass postings %q, decodeMessage's %q", got, want)
		}
	})
}
