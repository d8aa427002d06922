package engine

import (
	"fmt"
	"testing"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/xmldom"
)

// --- projected ingest differential: projected vs full, batch sizes 1/32 ---

// projDiffApp's rules reference only /order/id and /order/poison, so the
// inbox projection prunes the bulky <items> subtree. The poison rule
// exercises the error path: the error message embeds the *original*
// document, which forces the engine to re-materialize the full tree from
// a projected record.
const projDiffApp = `
	create queue inbox kind basic mode persistent;
	create queue hits kind basic mode persistent;
	create queue errs kind basic mode persistent;
	create rule route for inbox if (exists(/order/id)) then
	  do enqueue <routed>{string(/order/id)}</routed> into hits;
	create rule poison for inbox errorqueue errs
	  if (/order/poison) then do enqueue <x>{1 idiv 0}</x> into hits;
`

// projDiffSlicedApp adds a slicing whose property is defined on audit
// alone. Its rule reads the <items> subtree, so audit's projection keeps it,
// while inbox's messages join no slicing, never run the rule, and keep
// pruning it.
const projDiffSlicedApp = projDiffApp + `
	create queue audit kind basic mode persistent;
	create property orderID as xs:string fixed queue audit value /order/id;
	create slicing byOrder on orderID;
	create rule tally for byOrder if (/order/items) then
	  do enqueue <items>{count(/order/items/item)}</items> into hits;
`

func projDiffPayload(i int) string {
	poison := ""
	if i%6 == 5 {
		poison = "<poison/>"
	}
	return fmt.Sprintf(`<order><id>%d</id>%s<items><item sku="A-%d" qty="2"><name>article</name><price cur="EUR">19.90</price></item><item sku="B-%d" qty="1"><note>mixed <b>content</b> tail</note></item></items></order>`,
		i, poison, i, i)
}

// runProjDiff enqueues n payloads into each of queues and drains.
func runProjDiff(t *testing.T, app string, queues []string, batchSize int, fullIngest bool, n int) (map[string][]string, Stats) {
	t.Helper()
	e := newEngine(t, app, func(c *Config) {
		c.Workers = 8
		c.BatchSize = batchSize
		c.FullIngest = fullIngest
		c.Store = msgstore.DefaultOptions()
		c.Store.Store.SyncCommits = false
	})
	if fullIngest {
		if e.Projection("inbox") != nil {
			t.Fatal("FullIngest must disable projections")
		}
	} else if e.Projection("inbox") == nil {
		t.Fatal("the app must yield an inbox projection (analysis regressed?)")
	} else if order, _ := e.Projection("inbox").Lookup("order"); order == nil {
		t.Fatal("inbox's projection keeps /order whole or not at all")
	} else if _, keep := order.Lookup("items"); keep {
		t.Fatal("inbox's projection keeps /order/items, which no rule that runs on inbox reads")
	}
	for i := 0; i < n; i++ {
		for _, q := range queues {
			if _, err := e.EnqueueXML(q, projDiffPayload(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !e.Drain(60 * time.Second) {
		t.Fatal("drain")
	}
	state := map[string][]string{}
	for _, q := range e.MessageStore().QueueNames() {
		state[q] = queueFingerprint(t, e, q)
	}
	return state, e.Stats()
}

// TestProjectedIngestDifferential runs the same workload with streaming
// projected ingest and with the legacy full-DOM ingest, at batch sizes 1
// and 32, and asserts identical final store state — including the error
// queue, whose messages embed the complete original documents that the
// projected run must lazily re-materialize. It runs each app: projDiffApp,
// and projDiffSlicedApp, whose slicing rule runs on one of its two queues
// and must widen that queue's projection alone.
func TestProjectedIngestDifferential(t *testing.T) {
	const n = 180
	cases := []struct {
		name, app string
		queues    []string
	}{
		{"inbox", projDiffApp, []string{"inbox"}},
		{"sliced-audit", projDiffSlicedApp, []string{"inbox", "audit"}},
	}
	for _, batch := range []int{1, 32} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { projDiffCase(t, c.app, c.queues, batch, n) })
			}
		})
	}
}

// projDiffCase runs one app with full and with projected ingest and
// compares the final states.
func projDiffCase(t *testing.T, app string, queues []string, batch, n int) {
	full, fullStats := runProjDiff(t, app, queues, batch, true, n)
	proj, projStats := runProjDiff(t, app, queues, batch, false, n)
	if len(full) != len(proj) {
		t.Fatalf("queue sets differ: %d vs %d", len(full), len(proj))
	}
	for q, want := range full {
		got, ok := proj[q]
		if !ok {
			t.Fatalf("queue %q missing in projected run", q)
		}
		if len(got) != len(want) {
			t.Fatalf("queue %q: %d messages projected vs %d full", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("queue %q message %d differs:\n  full:      %s\n  projected: %s", q, i, want[i], got[i])
			}
		}
	}
	if fullStats.Processed != projStats.Processed {
		t.Errorf("processed: full %d, projected %d", fullStats.Processed, projStats.Processed)
	}
	if fullStats.Errors != projStats.Errors {
		t.Errorf("errors: full %d, projected %d", fullStats.Errors, projStats.Errors)
	}
	if want := uint64(n / 6); projStats.Errors != want {
		t.Errorf("poison errors: %d, want %d", projStats.Errors, want)
	}
}

// TestProjectionRuleChangeFallsBackToFullDocs stores messages under one
// projection, then reopens the store with rules that read paths *outside*
// that projection. The stored records carry the old fingerprint; the new
// one mismatches, so every read falls back to full materialization (the
// spans are re-parsed) and the new rules see complete documents.
func TestProjectionRuleChangeFallsBackToFullDocs(t *testing.T) {
	const appA = `
		create queue inbox kind basic mode persistent;
		create queue hits kind basic mode persistent;
		create rule route for inbox if (exists(/order/id)) then
		  do enqueue <routed>{string(/order/id)}</routed> into hits;
	`
	// appB reads the item names — inside the subtree appA's projection
	// pruned into opaque spans.
	const appB = `
		create queue inbox kind basic mode persistent;
		create queue hits kind basic mode persistent;
		create rule route for inbox if (exists(/order/items)) then
		  do enqueue <names>{string(/order/items/item/name)}</names> into hits;
	`
	dir := t.TempDir()
	const n = 20

	appl, err := qdl.Parse(appA)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Dir: dir, Workers: 4}
	cfg.Store = msgstore.DefaultOptions()
	cfg.Store.Store.SyncCommits = false
	e, err := New(cfg, appl)
	if err != nil {
		t.Fatal(err)
	}
	projA := e.Projection("inbox")
	if projA == nil {
		t.Fatal("appA must yield an inbox projection")
	}
	// Not started: messages are stored (projected under appA's
	// fingerprint) but never processed.
	for i := 0; i < n; i++ {
		if _, err := e.EnqueueXML("inbox", fmt.Sprintf(
			`<order><id>%d</id><items><item><name>article-%d</name></item></items></order>`, i, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	// Reopen under appB: new projection, old records.
	appl2, err := qdl.Parse(appB)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(cfg, appl2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Stop() })
	projB := e2.Projection("inbox")
	if projB == nil {
		t.Fatal("appB must yield an inbox projection")
	}
	if projA.Fingerprint() == projB.Fingerprint() {
		t.Fatal("the two projections must have distinct fingerprints")
	}
	e2.Start()
	if !e2.Drain(30 * time.Second) {
		t.Fatal("drain")
	}
	docs, err := e2.MessageStore().QueueDocs("hits")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != n {
		t.Fatalf("hits has %d messages, want %d", len(docs), n)
	}
	want := map[string]bool{}
	for i := 0; i < n; i++ {
		want[fmt.Sprintf("<names>article-%d</names>", i)] = true
	}
	for _, d := range docs {
		g := xmldom.Serialize(d)
		if !want[g] {
			t.Errorf("unexpected hit %q (pruned span not re-materialized?)", g)
		}
	}
}
