package engine

import (
	"fmt"
	"sync"
	"testing"
	"testing/fstest"
	"time"

	"demaq/internal/faultinject"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
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

// e2eRun drives one complete workload: N serially-acked client sends
// through the node to the receiver, rebooting the node whenever its FaultFS
// crashes. The phases are start (receiver, node, client), admit (every job
// acknowledged) and deliver (every job at the receiver, the node drained).
type e2eRun struct {
	*crashNode
	fn   *faultinject.FaultNet
	jobs int

	// backlog cuts the receiver off until every job is admitted, so the
	// whole workload piles up in the outgoing queue and deliver sends it in
	// one go. stats are the node's counters at the end of the run.
	backlog bool
	stats   Stats

	client *gateway.Reliable

	recvMu sync.Mutex
	got    []string
}

func newE2ERun(t testing.TB, fs *faultinject.FaultFS, fn *faultinject.FaultNet, jobs int, backlog bool) *e2eRun {
	return &e2eRun{crashNode: newCrashNode(t, fs, e2eNodeApp, e2eFiles, fn), fn: fn, jobs: jobs, backlog: backlog}
}

// received returns the receiver's observed payload sequence.
func (r *e2eRun) received() []string {
	r.recvMu.Lock()
	defer r.recvMu.Unlock()
	return append([]string(nil), r.got...)
}

// rebootIfCrashed reboots the node if its storage crashed (the armed disk
// site, or a net-op site crashing it as a transfer went out).
func (r *e2eRun) rebootIfCrashed() {
	if r.fs.Crashed() {
		r.reboot()
	}
}

// start subscribes the remote receiver, boots the node and the client.
func (r *e2eRun) start() {
	t := r.t
	t.Helper()
	// Remote receiver: a reliable endpoint that records every admitted
	// payload (its own dedup window suppresses the node's retransmits).
	recvRel, err := gateway.NewReliable(r.fn, "fnet://recv/inbox", 2*time.Millisecond, 100000)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(recvRel.Close)
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
	r.open()
	r.eng.Start()
	// Client: serially-acked reliable sends; the generous retry budget
	// rides out node downtime (unsubscribed endpoints swallow transfers).
	if r.client, err = gateway.NewReliable(r.fn, "fnet://client/acks", 2*time.Millisecond, 100000); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.client.Close)
	if err := r.client.Subscribe(func([]byte, map[string]string) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// admit sends every job and waits for its acknowledgement.
func (r *e2eRun) admit() {
	t := r.t
	t.Helper()
	for i := 1; i <= r.jobs; i++ {
		done := make(chan error, 1)
		r.client.SendAsync("fnet://node/in",
			[]byte(fmt.Sprintf("<job><n>%d</n></job>", i)), nil,
			func(err error) { done <- err })
		deadline := time.Now().Add(60 * time.Second)
		for acked := false; !acked; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("job %d never acknowledged: %v", i, err)
				}
				acked = true
			case <-time.After(time.Millisecond):
				if time.Now().After(deadline) {
					t.Fatalf("job %d ack timed out", i)
				}
				r.rebootIfCrashed()
			}
		}
	}
}

// deliver lets the backlog flow, drains the node — its senders hold every
// transfer the receiver has not acknowledged — and stops it. The armed
// crash can still fire here (a late WAL flush, a drain-time write, the
// closing checkpoint): the node reboots and drains again; an armed site
// fires at most once.
func (r *e2eRun) deliver() {
	t := r.t
	t.Helper()
	if r.backlog {
		r.fn.HealPartition("fnet://recv/")
	}
	for {
		r.settle()
		r.stats = r.eng.Stats()
		err := r.eng.Stop()
		if err == nil {
			break
		}
		if !r.fs.Crashed() {
			t.Fatalf("final stop: %v", err)
		}
		r.fs.ClearFault()
		r.open()
		r.eng.Start()
	}
	r.fn.Close()
}

// run is the whole workload.
func (r *e2eRun) run() {
	r.start()
	r.admit()
	r.deliver()
}

// check reopens the stopped node and asserts end-to-end exactly-once: the
// node admitted every job once, its error queue is empty, its store
// verifies, and the receiver saw jobs 1..r.jobs exactly once, in send
// order.
func (r *e2eRun) check(t testing.TB) {
	t.Helper()
	r.open()
	defer r.eng.Stop()
	ms := r.eng.MessageStore()
	if err := ms.VerifyIntegrity(); err != nil {
		t.Fatalf("integrity after recovery: %v", err)
	}
	if docs, _ := ms.QueueDocs("errs"); len(docs) != 0 {
		t.Fatalf("error queue not empty: %d messages, first: %s", len(docs), docs[0].StringValue())
	}
	if msgs, _ := ms.Messages("in"); len(msgs) != r.jobs {
		t.Fatalf("node admitted %d jobs, want %d (lost or duplicated at the incoming gateway)", len(msgs), r.jobs)
	}
	got := r.received()
	if len(got) != r.jobs {
		t.Fatalf("receiver got %d transfers, want %d: %v", len(got), r.jobs, got)
	}
	for i, p := range got {
		want := fmt.Sprintf("<done>%d</done>", i+1)
		if p != want {
			t.Fatalf("transfer %d = %q, want %q (full: %v)", i, p, want, got)
		}
	}
}

// e2eScenario sweeps the whole workload, at its disk sites or, with net, at
// its network sites: "the node dies as packet k arrives/departs". Its
// fault-free probe is the baseline every site is compared against.
func e2eScenario(net bool) faultinject.Scenario[*e2eRun] {
	return faultinject.Scenario[*e2eRun]{
		Short: 8, Net: net,
		Setup: func(t testing.TB, fs *faultinject.FaultFS, fn *faultinject.FaultNet) *e2eRun {
			return newE2ERun(t, fs, fn, e2eJobs, false)
		},
		Run:   func(_ testing.TB, r *e2eRun) error { r.run(); return nil },
		Check: func(t testing.TB, r *e2eRun) { r.check(t) },
	}
}

// TestE2ETortureStorageCrashSweep crashes the whole node at its disk sites
// (write/sync/truncate/remove) and asserts end-to-end exactly-once after
// each crash-restart.
func TestE2ETortureStorageCrashSweep(t *testing.T) {
	faultinject.Sweep(t, e2eScenario(false))
}

// TestE2ETortureNetCrashSweep crashes the whole node at its network sites
// — "the node dies as packet k arrives/departs" — covering the windows
// between a transfer, its enqueue, its ack, and its forward.
func TestE2ETortureNetCrashSweep(t *testing.T) {
	faultinject.Sweep(t, e2eScenario(true))
}

// TestE2ETortureBacklogCrashSweep repeats the two sweeps over the part of
// the workload where the sender's consume commits cover several acked
// transfers: the receiver is cut off until every job sits in the outgoing
// queue, and the node is crashed at the disk and network sites from the
// moment the backlog starts to flow. A crash then leaves up to a whole
// consume batch acked but unmarked; the restarted sender repeats those
// transfers under their durable sequence numbers and the receiver still
// sees every job exactly once, in order.
func TestE2ETortureBacklogCrashSweep(t *testing.T) {
	for _, net := range []bool{false, true} {
		faultinject.Sweep(t, faultinject.Scenario[*e2eRun]{
			Short: 6, Net: net,
			Setup: func(t testing.TB, fs *faultinject.FaultFS, fn *faultinject.FaultNet) *e2eRun {
				r := newE2ERun(t, fs, fn, e2eBacklogJobs, true)
				r.start()
				r.admit()
				return r
			},
			Run: func(_ testing.TB, r *e2eRun) error { r.deliver(); return nil },
			Probe: func(t testing.TB, r *e2eRun, _ []faultinject.FaultPoint) {
				if st := r.stats; st.GatewaySent != e2eBacklogJobs || st.GatewayConsumeCommits >= st.GatewaySent {
					t.Fatalf("backlog of %d: %d transfers in %d consume commits — no consume batch above one to crash into",
						e2eBacklogJobs, st.GatewaySent, st.GatewayConsumeCommits)
				}
				t.Logf("probe: %d transfers in %d consume commits", r.stats.GatewaySent, r.stats.GatewayConsumeCommits)
			},
			Check: func(t testing.TB, r *e2eRun) { r.check(t) },
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
			r := newE2ERun(t, faultinject.NewFaultFS(seed), faultinject.NewFaultNet(seed*31), e2eJobs, false)
			r.fn.SetDropRate(0.10)
			r.fn.SetDupRate(0.05)
			r.fn.SetReorderRate(0.05)
			// One storage crash mid-workload on top of the chaos.
			r.fs.CrashAtSite(faultinject.Site{Op: "write", Class: "wal", N: 2 + 3*int(seed)}, seed)
			r.run()
			r.check(t)
			if _, ok := r.fs.Fired(); !ok {
				t.Fatal("the storage crash never fired")
			}
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
