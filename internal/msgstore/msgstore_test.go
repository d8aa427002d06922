package msgstore

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

func openTemp(t *testing.T) *Store {
	t.Helper()
	ms, err := Open(t.TempDir(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms
}

// removeNow collects processed messages of one queue in a retention pass
// of their own.
func removeNow(ms *Store, queue string, ids []MsgID) error {
	p := ms.BeginCollect()
	if _, err := p.Remove(queue, ids); err != nil {
		return err
	}
	return p.Commit()
}

func enqueue(t *testing.T, ms *Store, queue, xml string, props map[string]xdm.Value) MsgID {
	t.Helper()
	tx := ms.Begin()
	if err := tx.Enqueue(queue, xmldom.MustParse(xml), props, time.Now()); err != nil {
		t.Fatal(err)
	}
	out, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return out[0].ID
}

// processedIDs lists the processed (retention-eligible) messages of a queue.
func processedIDs(ms *Store, queue string) []MsgID {
	msgs, _ := ms.Messages(queue)
	var out []MsgID
	for _, m := range msgs {
		if m.Processed {
			out = append(out, m.ID)
		}
	}
	return out
}

func unprocessedIDs(ms *Store, queue string) []MsgID {
	var out []MsgID
	for _, m := range ms.UnprocessedAfter(queue, 0, math.MaxInt, nil) {
		out = append(out, m.ID)
	}
	return out
}

func TestEnqueueAndRead(t *testing.T) {
	ms := openTemp(t)
	if _, err := ms.CreateQueue("crm", Persistent, 0); err != nil {
		t.Fatal(err)
	}
	id := enqueue(t, ms, "crm", `<offerRequest><requestID>r1</requestID></offerRequest>`,
		map[string]xdm.Value{"Sender": xdm.NewString("urn:test")})
	doc, err := ms.Doc(id)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Name.Local != "offerRequest" {
		t.Fatal("payload")
	}
	m, ok := ms.Get(id)
	if !ok || m.Queue != "crm" || m.Processed {
		t.Fatalf("meta: %+v", m)
	}
	if v, ok := ms.Property(id, "Sender"); !ok || v.S != "urn:test" {
		t.Fatalf("property: %v", v)
	}
}

func TestTransientQueue(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("tmp", Transient, 0)
	id := enqueue(t, ms, "tmp", `<x>1</x>`, nil)
	doc, err := ms.Doc(id)
	if err != nil || doc.StringValue() != "1" {
		t.Fatal("transient doc")
	}
	docs, _ := ms.QueueDocs("tmp")
	if len(docs) != 1 {
		t.Fatal("queue docs")
	}
}

func TestQueueOrderAndProcessed(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("q", Persistent, 0)
	var ids []MsgID
	for i := 0; i < 10; i++ {
		ids = append(ids, enqueue(t, ms, "q", fmt.Sprintf(`<m>%d</m>`, i), nil))
	}
	msgs, _ := ms.Messages("q")
	for i, m := range msgs {
		if m.ID != ids[i] {
			t.Fatal("enqueue order")
		}
	}
	tx := ms.Begin()
	tx.MarkProcessed(ids[0])
	tx.MarkProcessed(ids[1])
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := unprocessedIDs(ms, "q"); len(got) != 8 {
		t.Fatalf("unprocessed: %d", len(got))
	}
	if got := processedIDs(ms, "q"); len(got) != 2 {
		t.Fatalf("processed: %d", len(got))
	}
}

func TestAbortDiscards(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("q", Persistent, 0)
	tx := ms.Begin()
	tx.Enqueue("q", xmldom.MustParse(`<a/>`), nil, time.Now())
	tx.Abort()
	msgs, _ := ms.Messages("q")
	if len(msgs) != 0 {
		t.Fatal("aborted enqueue visible")
	}
}

func TestAtomicMultiEnqueue(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("a", Persistent, 0)
	ms.CreateQueue("b", Transient, 0)
	tx := ms.Begin()
	tx.Enqueue("a", xmldom.MustParse(`<m1/>`), nil, time.Now())
	tx.Enqueue("b", xmldom.MustParse(`<m2/>`), nil, time.Now())
	out, err := tx.Commit()
	if err != nil || len(out) != 2 {
		t.Fatalf("commit: %v %v", out, err)
	}
	am, _ := ms.Messages("a")
	bm, _ := ms.Messages("b")
	if len(am) != 1 || len(bm) != 1 {
		t.Fatal("both queues should have the message")
	}
	// IDs reflect global order.
	if !(am[0].ID < bm[0].ID) {
		t.Fatal("ID order")
	}
}

func TestRestartRecoversMessagesAndFlags(t *testing.T) {
	dir := t.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ms.CreateQueue("q", Persistent, 3)
	var ids []MsgID
	for i := 0; i < 5; i++ {
		tx := ms.Begin()
		tx.Enqueue("q", xmldom.MustParse(fmt.Sprintf(`<m n="%d">body</m>`, i)),
			map[string]xdm.Value{"n": xdm.NewInteger(int64(i))}, time.Now())
		out, _ := tx.Commit()
		ids = append(ids, out[0].ID)
	}
	tx := ms.Begin()
	tx.MarkProcessed(ids[2])
	tx.Commit()
	ms.PageStore().CrashForTest()

	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	// Queue must be re-declared (QDL is re-run by the engine), but its
	// messages were recovered from the heap on open.
	if _, err := ms2.CreateQueue("q", Persistent, 3); err != nil {
		t.Fatal(err)
	}
	msgs, err := ms2.Messages("q")
	if err != nil || len(msgs) != 5 {
		t.Fatalf("recovered %d messages: %v", len(msgs), err)
	}
	if !msgs[2].Processed || msgs[3].Processed {
		t.Fatal("processed flags not recovered")
	}
	if v, ok := ms2.Property(ids[4], "n"); !ok || v.T != xdm.TypeInteger || v.I != 4 {
		t.Fatalf("typed property not recovered: %+v", v)
	}
	doc, err := ms2.Doc(ids[1])
	if err != nil || doc.Root().StringValue() != "body" {
		t.Fatal("payload not recovered")
	}
	// New IDs continue after the recovered maximum.
	tx2 := ms2.Begin()
	tx2.Enqueue("q", xmldom.MustParse(`<m/>`), nil, time.Now())
	out, _ := tx2.Commit()
	if nid := out[0].ID; nid <= ids[4] {
		t.Fatalf("ID sequence regressed: %d <= %d", nid, ids[4])
	}
}

func TestRemoveAndRetentionScan(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("q", Persistent, 0)
	var ids []MsgID
	for i := 0; i < 20; i++ {
		ids = append(ids, enqueue(t, ms, "q", `<m>x</m>`, nil))
	}
	tx := ms.Begin()
	for _, id := range ids[:10] {
		tx.MarkProcessed(id)
	}
	tx.Commit()
	if err := removeNow(ms, "q", ids[:10]); err != nil {
		t.Fatal(err)
	}
	msgs, _ := ms.Messages("q")
	if len(msgs) != 10 {
		t.Fatalf("after remove: %d", len(msgs))
	}
	if _, err := ms.Doc(ids[0]); err == nil {
		t.Fatal("removed doc should not load")
	}
	// Removal is durable.
	docs, _ := ms.QueueDocs("q")
	if len(docs) != 10 {
		t.Fatal("queue docs after remove")
	}
}

func TestLargeMessagePayload(t *testing.T) {
	ms := openTemp(t)
	ms.CreateQueue("q", Persistent, 0)
	body := strings.Repeat("<item>payload data with some text</item>", 2000) // ~80 KB
	id := enqueue(t, ms, "q", "<big>"+body+"</big>", nil)
	doc, err := ms.Doc(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(doc.Root().ChildElements()); n != 2000 {
		t.Fatalf("big payload children: %d", n)
	}
}

func TestCollections(t *testing.T) {
	dir := t.TempDir()
	ms, _ := Open(dir, DefaultOptions())
	if err := ms.AddToCollection("crm", xmldom.MustParse(`<pricelist><p>1</p></pricelist>`)); err != nil {
		t.Fatal(err)
	}
	if docs := ms.Collection("crm"); len(docs) != 1 {
		t.Fatal("collection")
	}
	if docs := ms.Collection("none"); docs != nil {
		t.Fatal("unknown collection should be empty")
	}
	ms.Close()
	ms2, err := Open(dir, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer ms2.Close()
	if docs := ms2.Collection("crm"); len(docs) != 1 {
		t.Fatal("collection not durable")
	}
}

func TestDocCacheEviction(t *testing.T) {
	opts := DefaultOptions()
	opts.CacheDocs = 4
	ms, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	ms.CreateQueue("q", Persistent, 0)
	var ids []MsgID
	for i := 0; i < 20; i++ {
		ids = append(ids, enqueue(t, ms, "q", fmt.Sprintf(`<m>%d</m>`, i), nil))
	}
	for i, id := range ids {
		doc, err := ms.Doc(id)
		if err != nil || doc.StringValue() != fmt.Sprintf("%d", i) {
			t.Fatalf("doc %d through small cache: %v", i, err)
		}
	}
}
