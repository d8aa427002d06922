package demaq

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"demaq/internal/engine"
)

const quickApp = `
create queue in  kind basic mode persistent;
create queue out kind basic mode persistent;
create rule respond for in
  if (//ping) then do enqueue <pong>{//ping/text()}</pong> into out;
`

func TestPublicAPIRoundTrip(t *testing.T) {
	srv, err := Open(t.TempDir(), quickApp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	if _, err := srv.Enqueue("in", `<ping>hi</ping>`, nil); err != nil {
		t.Fatal(err)
	}
	if !srv.Drain(5 * time.Second) {
		t.Fatal("drain")
	}
	msgs, err := srv.Queue("out")
	if err != nil || len(msgs) != 1 {
		t.Fatalf("out: %v %v", msgs, err)
	}
	if !strings.Contains(msgs[0].XML, "<pong>hi</pong>") {
		t.Fatalf("xml: %s", msgs[0].XML)
	}
	st := srv.Stats()
	if st.Processed == 0 || st.Enqueued < 2 {
		t.Fatalf("stats: %s", FormatStats(st))
	}
	if len(srv.Queues()) != 2 {
		t.Fatal("queues")
	}
}

func TestPublicAPIRestart(t *testing.T) {
	dir := t.TempDir()
	srv, err := Open(dir, quickApp, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.Enqueue("in", `<ping>persisted</ping>`, nil)
	srv.Drain(5 * time.Second)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := Open(dir, quickApp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	msgs, _ := srv2.Queue("out")
	if len(msgs) != 1 || !strings.Contains(msgs[0].XML, "persisted") {
		t.Fatalf("after restart: %v", msgs)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(quickApp); err != nil {
		t.Fatal(err)
	}
	if err := Validate(`create queue q kind wrong mode persistent;`); err == nil {
		t.Fatal("bad app accepted")
	}
	if err := Validate(`
		create queue q kind basic mode persistent;
		create rule r for q do enqueue <x/> into missing;`); err == nil {
		t.Fatal("unknown enqueue target accepted")
	}
}

func TestMasterDataAndGC(t *testing.T) {
	srv, err := Open(t.TempDir(), `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create collection prices;
		create rule lookup for in
		  if (//q) then
		    do enqueue <price>{collection("prices")//p[@sku = "A"]/text()}</price> into out;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddMasterData("prices", `<list><p sku="A">42</p></list>`); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.Enqueue("in", `<q/>`, nil)
	srv.Drain(5 * time.Second)
	msgs, _ := srv.Queue("out")
	if len(msgs) != 1 || !strings.Contains(msgs[0].XML, ">42<") {
		t.Fatalf("master data lookup: %v", msgs)
	}
	// The input is processed and sliceless: collectable.
	if n, err := srv.CollectGarbage(); err != nil || n == 0 {
		t.Fatalf("gc: %d %v", n, err)
	}
}

func TestReloadThroughPublicAPI(t *testing.T) {
	srv, err := Open(t.TempDir(), `
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	srv.Enqueue("in", `<m/>`, nil)
	srv.Drain(5 * time.Second)
	if err := srv.Reload(`
		create queue in kind basic mode persistent;
		create queue out kind basic mode persistent;
		create rule fwd for in if (//m) then do enqueue <seen/> into out;
	`); err != nil {
		t.Fatal(err)
	}
	srv.Enqueue("in", `<m/>`, nil)
	srv.Drain(5 * time.Second)
	msgs, _ := srv.Queue("out")
	if len(msgs) != 1 {
		t.Fatalf("reloaded rule output: %d", len(msgs))
	}
}

func TestExplicitProps(t *testing.T) {
	srv, err := Open(t.TempDir(), `
		create queue in kind basic mode persistent;
		create property level as xs:integer queue in value 0;
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, err := srv.Enqueue("in", `<m/>`, map[string]string{"level": "7"})
	if err != nil {
		t.Fatal(err)
	}
	msgs, _ := srv.Queue("in")
	if len(msgs) != 1 || msgs[0].ID != id || msgs[0].Props["level"] != "7" {
		t.Fatalf("props: %+v", msgs)
	}
}

func TestFormatStatsDegraded(t *testing.T) {
	st := Stats{Processed: 3}
	if s := FormatStats(st); strings.Contains(s, "DEGRADED") {
		t.Fatalf("healthy stats flagged degraded: %s", s)
	}
	st.Degraded = true
	st.StorageError = "store: disk failure"
	s := FormatStats(st)
	if !strings.Contains(s, "DEGRADED") || !strings.Contains(s, "disk failure") {
		t.Fatalf("degraded stats not surfaced: %s", s)
	}
}

func TestFormatStatsQueueReads(t *testing.T) {
	st := Stats{Processed: 3}
	if s := FormatStats(st); strings.Contains(s, "q-probed") {
		t.Fatalf("queue reads shown without any: %s", s)
	}
	st.QueueReadsProbed, st.QueueDocsProbed, st.QueueReadsScanned, st.QueueDocsScanned = 4, 5, 2, 60
	if s := FormatStats(st); !strings.Contains(s, "q-probed=4/5docs q-scanned=2/60docs") {
		t.Fatalf("queue reads not surfaced: %s", s)
	}
}

func TestFormatStatsSliceReads(t *testing.T) {
	st := Stats{Processed: 3}
	if s := FormatStats(st); strings.Contains(s, "slice-reads") {
		t.Fatalf("slice reads shown without any: %s", s)
	}
	st.SliceReads, st.SliceDocsRead = 7, 140
	if s := FormatStats(st); !strings.Contains(s, "slice-reads=7/140docs") {
		t.Fatalf("slice reads not surfaced: %s", s)
	}
}

func TestFormatStatsGCPasses(t *testing.T) {
	st := Stats{Processed: 3}
	if s := FormatStats(st); strings.Contains(s, "gc=") {
		t.Fatalf("collector passes shown without any: %s", s)
	}
	st.GCPasses, st.GCPassNs = 4, 17_000_000
	if s := FormatStats(st); !strings.Contains(s, " gc=4/4.25ms ") {
		t.Fatalf("collector passes not surfaced: %s", s)
	}
}

// TestFormatStatsCommittedBatches: the stats line shows worker commits and
// the messages each processed beside the claim rounds, which count a
// requeued tail twice.
func TestFormatStatsCommittedBatches(t *testing.T) {
	st := Stats{BatchesClaimed: 6, AvgBatchSize: 4, BatchesCommitted: 4, AvgCommittedBatch: 5.5}
	if s := FormatStats(st); !strings.Contains(s, " batches=6 avgbatch=4.0 commits=4 avgcommit=5.5") {
		t.Fatalf("committed batches not surfaced: %s", s)
	}
}

// TestFormatStatsLockWaits: the stats line shows the lock requests that
// waited next to the deadlocks.
func TestFormatStatsLockWaits(t *testing.T) {
	st := Stats{Deadlocks: 2, LockWaits: 17}
	if s := FormatStats(st); !strings.Contains(s, " deadlocks=2 lockwaits=17 ") {
		t.Fatalf("lock waits not surfaced: %s", s)
	}
}

// TestFormatStatsPipeline: once a worker has committed, the stats line shows
// the pipelined transactions, the stage's waits for the log, those of the
// follower waits that flushed the log themselves, and the undurable gauge.
func TestFormatStatsPipeline(t *testing.T) {
	st := Stats{Processed: 3}
	if s := FormatStats(st); strings.Contains(s, "pipelined=") || strings.Contains(s, "follower-flushes=") {
		t.Fatalf("pipeline shown without a pipelined commit: %s", s)
	}
	st.PipelinedCommits, st.DurabilityWaits, st.FollowerFlushes, st.UndurableBatches = 9, 4, 1, 2
	if s := FormatStats(st); !strings.Contains(s, " pipelined=9 dur-waits=4 follower-flushes=1 undurable=2 ") {
		t.Fatalf("pipeline not surfaced: %s", s)
	}
}

// TestOpenPeerHonoursOptions: a peer node is configured by the same Options
// mapping as a primary — every option set reaches its engine, lock
// granularity included.
func TestOpenPeerHonoursOptions(t *testing.T) {
	opts := &Options{
		Workers: 3, BatchSize: 7, CoarseLocking: true, NoSync: true,
		NoMaterializedSlices: true, NoRuleOptimizations: true,
		GCInterval: time.Hour, MaxIngestBacklog: 11,
		WALSoftBudget: 1 << 20, WALHardBudget: 2 << 20,
		CheckpointInterval: time.Minute, SimNetwork: true,
	}
	srv, err := Open(t.TempDir(), quickApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer, err := srv.OpenPeer(t.TempDir(), quickApp, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.eng.Stop()
	want, got := srv.eng.Config(), peer.eng.Config()
	if got.Granularity != engine.LockQueue {
		t.Errorf("peer granularity %v, want queue locking", got.Granularity)
	}
	// Everything but the node's own directory and transport registry is
	// the same mapping of the same options.
	want.Dir, got.Dir = "", ""
	want.Transports, got.Transports = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Errorf("peer config\n  %+v\nprimary config\n  %+v", got, want)
	}
}
