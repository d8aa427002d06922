package engine

import (
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/store"
)

// The end-to-end torture harness: a reliable client sends a numbered job
// stream into a Demaq node over a deterministic fault-injecting network
// (FaultNet); the node's rule forwards each job through an outgoing
// gateway to a remote reliable receiver. The node's entire storage stack
// runs on a FaultFS, so both every disk operation and every network
// operation is an enumerable crash site. The sweep re-runs the workload
// once per site, crashes the whole node exactly there, restarts it
// (reopen + recovery + resubscribe), and asserts end-to-end exactly-once:
// the receiver observes every job exactly once, in send order, the error
// queue stays empty, and the recovered store passes VerifyIntegrity.
//
// What makes the assertion hold at every site:
//   - the client's ack is sent only after the enqueue and the receive
//     dedup window committed in one transaction (a crash between them
//     cannot make the ack a lie in either direction);
//   - the outgoing sender uses the durable message ID as its sequence
//     number, so a post-restart retransmit reuses the pre-crash number
//     and the receiver's window suppresses it;
//   - the sender-side queue keeps a transfer unprocessed until acked, so
//     no transfer is lost to a crash. The sender marks acked transfers in
//     batches, so a crash can leave several acked transfers unmarked; the
//     backlog sweep makes sure such batches exist at its crash sites.

const e2eNodeApp = `
create queue in kind incomingGateway mode persistent
  interface node.wsdl port InPort
  using WS-ReliableMessaging policy rm.xml;
create queue out kind outgoingGateway mode persistent
  interface recv.wsdl port RecvPort
  using WS-ReliableMessaging policy rm.xml
  errorqueue errs;
create queue errs kind basic mode persistent;
create rule fwd for in errorqueue errs
  if (//job) then do enqueue <done>{//job/n/text()}</done> into out;
`

var e2eFiles = fstest.MapFS{
	"node.wsdl": &fstest.MapFile{Data: []byte(`
		<definitions><service name="Node">
		  <port name="InPort"><address location="fnet://node/in"/></port>
		</service></definitions>`)},
	"recv.wsdl": &fstest.MapFile{Data: []byte(`
		<definitions><service name="Recv">
		  <port name="RecvPort"><address location="fnet://recv/inbox"/></port>
		</service></definitions>`)},
	"rm.xml": &fstest.MapFile{Data: []byte(`<policy/>`)},
}

const e2eJobs = 12

// e2eBacklogJobs is the workload of the backlog sweep: deep enough that the
// outgoing sender, once the receiver is reachable, runs ahead of its consume
// commits.
const e2eBacklogJobs = 32

func e2eConfig(fs *faultinject.FaultFS, fn *faultinject.FaultNet) Config {
	cfg := Config{
		Dir:        "e2e", // virtual: all I/O goes through the FaultFS
		Workers:    1,
		Store:      tortureStoreOptions(fs),
		Resources:  e2eFiles,
		Transports: gateway.NewRegistry(fn),
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	return cfg
}

// e2eRun drives one complete workload: N serially-acked client sends
// through the node to the receiver, restarting the node whenever its
// FaultFS crashes. arm configures the crash site (or nothing, for the
// fault-free enumeration pass) before traffic starts.
type e2eRun struct {
	t    *testing.T
	fs   *faultinject.FaultFS
	fn   *faultinject.FaultNet
	jobs int

	// backlog cuts the receiver off until every job is admitted, so the
	// whole workload piles up in the outgoing queue and is then sent in one
	// go. healDiskOp/healNetOp are the op counts at that moment, and stats
	// the node's counters at the end of the run.
	backlog               bool
	healDiskOp, healNetOp int
	stats                 Stats

	mu  sync.Mutex
	eng *Engine

	recvMu sync.Mutex
	got    []string
}

func newE2ERun(t *testing.T, fsSeed, netSeed int64) *e2eRun {
	t.Helper()
	r := &e2eRun{t: t, fs: faultinject.NewFaultFS(fsSeed), fn: faultinject.NewFaultNet(netSeed), jobs: e2eJobs}
	return r
}

func (r *e2eRun) engine() *Engine {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng
}

func (r *e2eRun) openNode() {
	r.t.Helper()
	app, err := qdl.Parse(e2eNodeApp)
	if err != nil {
		r.t.Fatal(err)
	}
	for {
		e, err := New(e2eConfig(r.fs, r.fn), app)
		if err == nil {
			e.Start()
			r.mu.Lock()
			r.eng = e
			r.mu.Unlock()
			return
		}
		if r.fs.Crashed() {
			// The armed site fired during boot (queue creation, recovery):
			// the node crashes and boots again.
			r.fs.ClearFault()
			continue
		}
		r.t.Fatalf("node open: %v", err)
	}
}

// restartNode is the whole-node crash-restart: stop (the dead store makes
// in-flight work fail, not block), clear the fault, reopen with recovery,
// resubscribe the gateways.
func (r *e2eRun) restartNode() {
	r.t.Helper()
	r.engine().Stop() // close on a crashed FS reports the crash; recovery fixes it
	r.fs.ClearFault()
	r.openNode()
}

// run executes the workload to completion and returns the receiver's
// observed payload sequence. The monitor goroutine performs the restart
// whenever the armed site fires.
func (r *e2eRun) run() []string {
	t := r.t
	t.Helper()

	// Remote receiver: a reliable endpoint that records every admitted
	// payload (its own dedup window suppresses the node's retransmits).
	recvRel, err := gateway.NewReliable(r.fn, "fnet://recv/inbox", 2*time.Millisecond, 100000)
	if err != nil {
		t.Fatal(err)
	}
	defer recvRel.Close()
	err = recvRel.Subscribe(func(payload []byte, _ map[string]string) error {
		r.recvMu.Lock()
		r.got = append(r.got, string(payload))
		r.recvMu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if r.backlog {
		r.fn.Partition("fnet://recv/")
	}
	r.openNode()

	// Crash monitor: whenever the node's storage crashes (armed disk site
	// or net-op hook), restart the whole node.
	stopMon := make(chan struct{})
	var monWG sync.WaitGroup
	monWG.Add(1)
	go func() {
		defer monWG.Done()
		for {
			select {
			case <-stopMon:
				return
			case <-time.After(time.Millisecond):
				if r.fs.Crashed() {
					r.restartNode()
				}
			}
		}
	}()

	// Client: serially-acked reliable sends; the generous retry budget
	// rides out node downtime (unsubscribed endpoints swallow transfers).
	clientRel, err := gateway.NewReliable(r.fn, "fnet://client/acks", 2*time.Millisecond, 100000)
	if err != nil {
		t.Fatal(err)
	}
	defer clientRel.Close()
	if err := clientRel.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= r.jobs; i++ {
		done := make(chan error, 1)
		clientRel.SendAsync("fnet://node/in",
			[]byte(fmt.Sprintf("<job><n>%d</n></job>", i)), nil,
			func(err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("job %d never acknowledged: %v", i, err)
			}
		case <-time.After(60 * time.Second):
			t.Fatalf("job %d ack timed out", i)
		}
	}

	if r.backlog {
		r.healDiskOp, r.healNetOp = r.fs.Ops(), r.fn.Ops()
		r.fn.HealPartition("fnet://recv/")
	}

	// All jobs admitted; wait for the pipeline to deliver every one.
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		r.recvMu.Lock()
		n := len(r.got)
		r.recvMu.Unlock()
		if n >= r.jobs {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stopMon)
	monWG.Wait()

	// Final phase: the armed crash can still fire here (a late WAL flush, a
	// drain-time write, the closing checkpoint). Each pass restarts once
	// more and re-verifies; an armed site fires at most once, so this
	// terminates quickly.
	for attempt := 0; ; attempt++ {
		if attempt > 5 {
			t.Fatal("node kept crashing in the final phase")
		}
		if r.fs.Crashed() {
			r.restartNode()
		}
		eng := r.engine()
		// Wait for the node to drain or for the armed crash to fire: a node
		// whose consume commit crashed holds its sender's slots and never
		// drains, so waiting out the timeout would only cost time.
		for deadline := time.Now().Add(30 * time.Second); !eng.Drain(time.Millisecond) && !r.fs.Crashed() && time.Now().Before(deadline); {
		}
		if r.fs.Crashed() {
			continue
		}
		// End-state invariants on the surviving node.
		if err := eng.MessageStore().VerifyIntegrity(); err != nil {
			if r.fs.Crashed() {
				continue
			}
			t.Fatalf("integrity after recovery: %v", err)
		}
		if docs, _ := eng.MessageStore().QueueDocs("errs"); len(docs) != 0 {
			t.Fatalf("error queue not empty: %d messages, first: %s", len(docs), docs[0].StringValue())
		}
		msgs, err := eng.MessageStore().Messages("in")
		if err != nil {
			if r.fs.Crashed() {
				continue
			}
			t.Fatal(err)
		}
		if len(msgs) != r.jobs {
			t.Fatalf("node admitted %d jobs, want %d (lost or duplicated at the incoming gateway)", len(msgs), r.jobs)
		}
		r.stats = eng.Stats()
		if err := eng.Stop(); err != nil {
			if r.fs.Crashed() {
				continue
			}
			t.Fatalf("final stop: %v", err)
		}
		break
	}
	r.fn.Close()

	r.recvMu.Lock()
	defer r.recvMu.Unlock()
	return append([]string(nil), r.got...)
}

// checkExactlyOnce asserts the receiver saw jobs 1..e2eJobs exactly once,
// in send order.
func checkExactlyOnce(t *testing.T, got []string, site string) {
	t.Helper()
	checkExactlyOnceN(t, got, e2eJobs, site)
}

func checkExactlyOnceN(t *testing.T, got []string, jobs int, site string) {
	t.Helper()
	if len(got) != jobs {
		t.Fatalf("%s: receiver got %d transfers, want %d: %v", site, len(got), jobs, got)
	}
	for i, p := range got {
		want := fmt.Sprintf("<done>%d</done>", i+1)
		if p != want {
			t.Fatalf("%s: transfer %d = %q, want %q (full: %v)", site, i, p, want, got)
		}
	}
}

// e2eStride picks the sweep stride: every site normally, a sampled subset
// under -short (CI). The first and last sites are always included.
func e2eStride(t *testing.T, total, shortSamples, fullSamples int) int {
	samples := fullSamples
	if testing.Short() {
		samples = shortSamples
	}
	if samples <= 0 || total <= samples {
		return 1
	}
	return total/samples + 1
}

// TestE2ETortureFaultFree enumerates the op sites and proves the pipeline
// meets exactly-once with no faults at all — the baseline every crash-site
// iteration is compared against.
func TestE2ETortureFaultFree(t *testing.T) {
	r := newE2ERun(t, 1, 1)
	got := r.run()
	checkExactlyOnce(t, got, "fault-free")
	if r.fs.Ops() == 0 || r.fn.Ops() == 0 {
		t.Fatalf("op enumeration empty: disk=%d net=%d", r.fs.Ops(), r.fn.Ops())
	}
	t.Logf("enumerated %d disk op sites, %d net op sites", r.fs.Ops(), r.fn.Ops())
}

// TestE2ETortureStorageCrashSweep crashes the whole node at enumerated
// disk op sites (write/sync/truncate) and asserts end-to-end exactly-once
// after each crash-restart.
func TestE2ETortureStorageCrashSweep(t *testing.T) {
	probe := newE2ERun(t, 1, 1)
	checkExactlyOnce(t, probe.run(), "probe")
	sites := probe.fs.Ops()
	stride := e2eStride(t, sites, 8, 48)
	t.Logf("sweeping %d of %d disk sites (stride %d)", (sites+stride-1)/stride, sites, stride)
	for k := 1; k <= sites; k += stride {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) {
			r := newE2ERun(t, int64(42+k), int64(100+k))
			r.fs.CrashAt(k)
			checkExactlyOnce(t, r.run(), fmt.Sprintf("crash at disk op %d", k))
		})
	}
}

// TestE2ETortureNetCrashSweep crashes the whole node at enumerated network
// op sites — "the node dies as packet k arrives/departs" — covering the
// windows between a transfer, its enqueue, its ack, and its forward.
func TestE2ETortureNetCrashSweep(t *testing.T) {
	probe := newE2ERun(t, 1, 1)
	checkExactlyOnce(t, probe.run(), "probe")
	sites := probe.fn.Ops()
	stride := e2eStride(t, sites, 8, 48)
	t.Logf("sweeping %d of %d net sites (stride %d)", (sites+stride-1)/stride, sites, stride)
	for k := 1; k <= sites; k += stride {
		k := k
		t.Run(fmt.Sprintf("net-op-%d", k), func(t *testing.T) {
			r := newE2ERun(t, int64(7000+k), int64(9000+k))
			r.fn.SetOpHook(func(op faultinject.NetOp) {
				if op.N == k {
					r.fs.CrashNow()
				}
			})
			checkExactlyOnce(t, r.run(), fmt.Sprintf("crash at net op %d", k))
		})
	}
}

// TestE2ETortureBacklogCrashSweep repeats the two sweeps over the part of
// the workload where the sender's consume commits cover several acked
// transfers: the receiver is cut off until every job sits in the outgoing
// queue, and the node is crashed at the disk and network op sites from the
// moment the backlog starts to flow. A crash then leaves up to a whole
// consume batch acked but unmarked; the restarted sender repeats those
// transfers under their durable sequence numbers and the receiver still
// sees every job exactly once, in order.
func TestE2ETortureBacklogCrashSweep(t *testing.T) {
	backlogRun := func(t *testing.T, fsSeed, netSeed int64) *e2eRun {
		r := newE2ERun(t, fsSeed, netSeed)
		r.jobs, r.backlog = e2eBacklogJobs, true
		return r
	}
	probe := backlogRun(t, 1, 1)
	checkExactlyOnceN(t, probe.run(), e2eBacklogJobs, "probe")
	if st := probe.stats; st.GatewaySent != e2eBacklogJobs || st.GatewayConsumeCommits >= st.GatewaySent {
		t.Fatalf("backlog of %d: %d transfers in %d consume commits — no consume batch above one to crash into",
			e2eBacklogJobs, st.GatewaySent, st.GatewayConsumeCommits)
	}
	t.Logf("probe: %d transfers in %d consume commits", probe.stats.GatewaySent, probe.stats.GatewayConsumeCommits)

	from, to := probe.healDiskOp, probe.fs.Ops()
	stride := e2eStride(t, to-from, 6, 48)
	t.Logf("sweeping %d of %d disk sites (stride %d)", (to-from+stride-1)/stride, to-from, stride)
	for k := from + 1; k <= to; k += stride {
		k := k
		t.Run(fmt.Sprintf("disk-op-%d", k), func(t *testing.T) {
			r := backlogRun(t, int64(42+k), int64(100+k))
			r.fs.CrashAt(k)
			checkExactlyOnceN(t, r.run(), e2eBacklogJobs, fmt.Sprintf("crash at disk op %d", k))
		})
	}
	from, to = probe.healNetOp, probe.fn.Ops()
	stride = e2eStride(t, to-from, 6, 48)
	t.Logf("sweeping %d of %d net sites (stride %d)", (to-from+stride-1)/stride, to-from, stride)
	for k := from + 1; k <= to; k += stride {
		k := k
		t.Run(fmt.Sprintf("net-op-%d", k), func(t *testing.T) {
			r := backlogRun(t, int64(7000+k), int64(9000+k))
			r.fn.SetOpHook(func(op faultinject.NetOp) {
				if op.N == k {
					r.fs.CrashNow()
				}
			})
			checkExactlyOnceN(t, r.run(), e2eBacklogJobs, fmt.Sprintf("crash at net op %d", k))
		})
	}
}

// TestE2ETortureChaosMatrix is the full matrix for the nightly run: seeded
// network chaos (drop, duplicate, reorder) combined with a mid-workload
// whole-node crash, across several seeds. Under -short a single cell runs.
func TestE2ETortureChaosMatrix(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			r := newE2ERun(t, seed, seed*31)
			r.fn.SetDropRate(0.10)
			r.fn.SetDupRate(0.05)
			r.fn.SetReorderRate(0.05)
			// One storage crash mid-workload on top of the chaos.
			r.fs.CrashAt(int(200 + seed*97))
			checkExactlyOnce(t, r.run(), fmt.Sprintf("chaos seed %d", seed))
		})
	}
}

// tortureStoreOptions mirrors the msgstore torture configuration: small
// buffer pool (forces mid-run write-backs), durable commits, every byte
// through the FaultFS.
func tortureStoreOptions(fs *faultinject.FaultFS) msgstore.Options {
	return msgstore.Options{
		Store: store.Options{
			VFS:             fs,
			BufferPages:     16,
			SyncCommits:     true,
			UnloggedDeletes: true,
		},
		CacheDocs: 8,
	}
}
