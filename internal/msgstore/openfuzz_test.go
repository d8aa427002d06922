package msgstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// buildOpenFuzzStore writes a small, cleanly closed message store — a queue
// with properties, processed flags and one overflow message, a queue whose
// chain links back to a reused page, a collection, a reset event and a
// session — and returns its files by name.
func buildOpenFuzzStore(tb testing.TB) map[string][]byte {
	tb.Helper()
	dir := tb.TempDir()
	ms, err := Open(dir, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := ms.CreateQueue("q", Persistent, 0); err != nil {
		tb.Fatal(err)
	}
	at := time.Unix(1_700_000_000, 0)
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf("<order id=%q>item</order>", fmt.Sprint(i))
		if i == 7 {
			body = "<order>" + strings.Repeat("<line>overflowing payload</line>", 600) + "</order>"
		}
		tx := ms.Begin()
		props := map[string]xdm.Value{"customer": xdm.NewString(fmt.Sprint("c", i%3)), "n": xdm.NewInteger(int64(i))}
		if err := tx.Enqueue("q", xmldom.MustParse(body), props, at); err != nil {
			tb.Fatal(err)
		}
		if i == 39 {
			tx.RecordReset("bycustomer", "c1")
		}
		out, err := tx.Commit()
		if err != nil {
			tb.Fatal(err)
		}
		if i%4 == 0 {
			tx := ms.Begin()
			tx.MarkProcessed(out[0].ID)
			if _, err := tx.Commit(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// Queue r's chain links back to a reused page: collecting its middle
	// pair of messages frees the page they filled, and the next page its
	// tail needs is that one.
	if _, err := ms.CreateQueue("r", Persistent, 0); err != nil {
		tb.Fatal(err)
	}
	var rids []MsgID
	for i := 0; i < 8; i++ {
		tx := ms.Begin()
		doc := xmldom.MustParse(fmt.Sprintf("<r i=%q>%s</r>", fmt.Sprint(i), strings.Repeat("y", 3000)))
		if err := tx.Enqueue("r", doc, map[string]xdm.Value{"customer": xdm.NewString("c1")}, at); err != nil {
			tb.Fatal(err)
		}
		out, err := tx.Commit()
		if err != nil {
			tb.Fatal(err)
		}
		rids = append(rids, out[0].ID)
		if i == 5 {
			tx := ms.Begin()
			if err := tx.MarkProcessedAll(rids[2:4]); err != nil {
				tb.Fatal(err)
			}
			if _, err := tx.Commit(); err != nil {
				tb.Fatal(err)
			}
			p := ms.BeginCollect()
			if _, err := p.Remove("r", rids[2:4]); err != nil {
				tb.Fatal(err)
			}
			if err := p.Commit(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if backwardLinks(tb, ms, "q:r") == 0 {
		tb.Fatal("queue r's chain does not link back to a lower page")
	}
	if err := ms.AddToCollection("c", xmldom.MustParse(`<master><row k="1"/></master>`)); err != nil {
		tb.Fatal(err)
	}
	if err := ms.PutSession(SessionState{Kind: SessionRecv, Endpoint: "e", Peer: "p", Seq: 4, Window: []uint64{6}}); err != nil {
		tb.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		tb.Fatal(err)
	}
	files := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// FuzzOpenDataFile overwrites bytes of one page of a small store's data
// file and opens the store: Open returns an error, or a store that passes
// VerifyIntegrity. It never panics and never loops.
func FuzzOpenDataFile(f *testing.F) {
	files := buildOpenFuzzStore(f)
	data := files["data.db"]
	pages := len(data) / store.PageSize
	// Seeds aim at the page header fields the open pass decodes: the chain
	// pointer, the slot count, the free-space bounds, the flags, the first
	// slot, and the LSN.
	for page := 0; page < pages; page++ {
		f.Add(uint16(page), uint16(8), []byte{0x02, 0, 0, 0})
		f.Add(uint16(page), uint16(16), []byte{0xff, 0xff})
		f.Add(uint16(page), uint16(18), []byte{0x00, 0x40})
		f.Add(uint16(page), uint16(22), []byte{0x00, 0x80})
		f.Add(uint16(page), uint16(24), []byte{0xf0, 0x1f, 0x40, 0})
		f.Add(uint16(page), uint16(0), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, page, off uint16, patch []byte) {
		dir := t.TempDir()
		for name, b := range files {
			if name == "data.db" {
				b = bytes.Clone(b)
				pg := b[int(page)%pages*store.PageSize:][:store.PageSize]
				copy(pg[int(off)%store.PageSize:], patch)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ms, err := Open(dir, DefaultOptions())
		if err != nil {
			return
		}
		defer ms.Close()
		if err := ms.VerifyIntegrity(); err != nil {
			t.Fatalf("Open accepted a store that fails VerifyIntegrity: %v", err)
		}
	})
}
