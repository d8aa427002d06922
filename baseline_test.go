// The comparison system for experiment E6 (BenchmarkE6, bench_test.go): a
// BPEL-style "instance context" engine in the spirit of the Oracle BPEL
// dehydration store the paper discusses (Sec. 2.1). Every process instance
// owns one monolithic runtime-context document; handling an event loads
// (rehydrates) the full context from the store, materializes it, appends
// the event, re-encodes the whole document and writes it back
// (dehydrates). Contexts use the same binary storage format as Demaq
// message payloads, so the comparison isolates the state model.
//
// Demaq's claim is that representing state as regular messages — appended
// once, queried declaratively — scales better with instance count and
// history length than constantly loading, manipulating and saving opaque
// monolithic contexts. The benchmark harness drives both engines with the
// same event stream.

package demaq

import (
	"fmt"
	"sync"
	"testing"

	"demaq/internal/store"
	"demaq/internal/xmldom"
)

// ContextEngine is the dehydration-store baseline.
type ContextEngine struct {
	ps   *store.Store
	heap store.HeapID

	mu    sync.Mutex
	index map[string]store.RID // instance → current context record
}

// openContextEngine creates a context engine backed by a page store in dir.
func openContextEngine(dir string, opts store.Options) (*ContextEngine, error) {
	ps, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	h, err := ps.CreateHeap("contexts")
	if err != nil {
		ps.Close()
		return nil, err
	}
	e := &ContextEngine{ps: ps, heap: h, index: map[string]store.RID{}}
	// Rehydrate the index (instance id is the context root's id attribute).
	// Contexts are stored in the same binary tree encoding as Demaq message
	// payloads (Materialize dispatches, so text records from older stores
	// still load) — the E-series comparison measures the state models, not
	// a storage-format handicap.
	err = ps.Scan(h, func(rid store.RID, data []byte) bool {
		doc, err := xmldom.Materialize(data)
		if err != nil {
			return true
		}
		if id, ok := doc.Root().Attr("id"); ok {
			e.index[id] = rid
		}
		return true
	})
	if err != nil {
		ps.Close()
		return nil, err
	}
	return e, nil
}

// Close closes the engine.
func (e *ContextEngine) Close() error { return e.ps.Close() }

// HandleEvent processes one event for an instance: rehydrate, mutate,
// dehydrate. The instance context is created on first use.
func (e *ContextEngine) HandleEvent(instance string, event *xmldom.Node) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	tx := e.ps.Begin()
	rid, exists := e.index[instance]

	var doc *xmldom.Node
	if exists {
		data, err := e.ps.Read(rid)
		if err != nil {
			tx.Abort()
			return err
		}
		doc, err = xmldom.Materialize(data) // rehydration: structural decode
		if err != nil {
			tx.Abort()
			return fmt.Errorf("baseline: context of %s corrupt: %w", instance, err)
		}
	} else {
		b := xmldom.NewBuilder()
		b.StartElement(xmldom.Name{Local: "context"})
		b.Attribute(xmldom.Name{Local: "id"}, instance)
		b.EndElement()
		doc = b.Done()
	}

	// Mutate: append the event to the context's history.
	b := xmldom.NewBuilder()
	b.StartElement(xmldom.Name{Local: "context"})
	b.Attribute(xmldom.Name{Local: "id"}, instance)
	for _, c := range doc.Root().Children {
		b.Subtree(c)
	}
	b.Subtree(event.Root())
	b.EndElement()
	newDoc := b.Done()

	// Dehydrate: full rewrite of the context record.
	if exists {
		if err := tx.Delete(e.heap, rid); err != nil {
			tx.Abort()
			return err
		}
	}
	newRID, err := tx.Insert(e.heap, xmldom.Encode(newDoc))
	if err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	e.index[instance] = newRID
	return nil
}

// EventCount returns the number of events recorded for an instance.
func (e *ContextEngine) EventCount(instance string) (int, error) {
	e.mu.Lock()
	rid, ok := e.index[instance]
	e.mu.Unlock()
	if !ok {
		return 0, nil
	}
	data, err := e.ps.Read(rid)
	if err != nil {
		return 0, err
	}
	doc, err := xmldom.Materialize(data)
	if err != nil {
		return 0, err
	}
	return len(doc.Root().ChildElements()), nil
}

// Instances returns the number of known instances.
func (e *ContextEngine) Instances() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.index)
}

func TestContextEngineAccumulatesEvents(t *testing.T) {
	e, err := openContextEngine(t.TempDir(), store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 10; i++ {
		ev := xmldom.MustParse(fmt.Sprintf(`<event n="%d">payload</event>`, i))
		if err := e.HandleEvent("inst-1", ev); err != nil {
			t.Fatal(err)
		}
	}
	n, err := e.EventCount("inst-1")
	if err != nil || n != 10 {
		t.Fatalf("events: %d %v", n, err)
	}
	if e.Instances() != 1 {
		t.Fatal("instances")
	}
}

func TestContextEngineMultiInstanceAndRestart(t *testing.T) {
	dir := t.TempDir()
	e, _ := openContextEngine(dir, store.DefaultOptions())
	for i := 0; i < 5; i++ {
		inst := fmt.Sprintf("inst-%d", i)
		for j := 0; j <= i; j++ {
			e.HandleEvent(inst, xmldom.MustParse(`<event/>`))
		}
	}
	e.Close()
	e2, err := openContextEngine(dir, store.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Instances() != 5 {
		t.Fatalf("instances after restart: %d", e2.Instances())
	}
	n, _ := e2.EventCount("inst-4")
	if n != 5 {
		t.Fatalf("inst-4 events: %d", n)
	}
}
