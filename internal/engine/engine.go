// Package engine implements the Demaq server: it executes a compiled
// application (internal/rule) against the message store, realizing the
// execution model of Sec. 3.1 — every unprocessed message is processed
// exactly once, in scheduler order, by evaluating all rules attached to its
// queue and to the slices it belongs to, collecting a pending update list,
// and applying it in one transaction. Execution is set-oriented
// (Config.BatchSize): workers claim same-queue batches and commit them as
// one unit, amortizing transaction, locking and WAL overhead across the
// batch. A claim of one message is a batch of one: there is no separate
// single-message path. Messages whose rules touch shared state run alone,
// failures bisect down to batches of one, and higher-priority arrivals
// preempt a running batch between messages. Error handling (Sec. 3.6),
// echo-queue timers (Sec. 2.1.3), gateway communication (Sec. 4.2) and
// retention-based garbage collection (Sec. 2.3.3) run as engine services.
package engine

import (
	"fmt"
	"io/fs"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"testing/fstest"
	"time"

	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/schema"
	"demaq/internal/slicing"
	"demaq/internal/store"
	locks "demaq/internal/txn"
	"demaq/internal/vfs"
	"demaq/internal/xmldom"
)

// LockGranularity selects the logical locking scheme (experiment E2).
type LockGranularity uint8

// Lock granularities.
const (
	// LockSlice locks individual slices and messages under queue
	// intention locks — the paper's recommendation (Sec. 4.3).
	LockSlice LockGranularity = iota
	// LockQueue locks whole queues, the coarse baseline.
	LockQueue
)

// Config configures an engine.
type Config struct {
	// Dir is the data directory.
	Dir string
	// Workers is the number of message-processing workers (default 4).
	Workers int
	// Granularity selects slice- or queue-level locking.
	Granularity LockGranularity
	// Store configures the message store. Store.CacheDocs sizes the
	// document cache (zero = 4096): it bounds how many rehydrated message
	// trees stay resident, and cold misses pay one structural decode per
	// document. A zero Store.Store takes full page-store defaults; any
	// non-zero field means the caller owns the whole page-store
	// configuration and it is used verbatim.
	Store msgstore.Options
	// Rules configures the rule compiler; the zero value is the production
	// compiler with every optimization on.
	Rules rule.Options
	// BatchSize caps how many messages a worker claims, evaluates and
	// commits as one set-oriented unit (default DefaultBatchSize). The
	// batch shares one transaction ID, one home-queue lock round and one
	// message-store commit — one WAL cohort instead of one per message.
	// 1 claims batches of one: one message per transaction, with live
	// reads — the test reference of TestBatchSingleDifferential. On
	// deadlock or rule error a batch is bisected down to batches of one,
	// whose retry and error-queue semantics are the reference.
	BatchSize int
	// GCInterval runs the retention garbage collector periodically;
	// zero disables the background task (CollectGarbage can be called
	// manually).
	GCInterval time.Duration
	// MaxRetries bounds deadlock retries per message (default 32).
	MaxRetries int
	// Logger receives engine diagnostics (default slog.Default).
	Logger *slog.Logger
	// Resources resolves files referenced by the application: WSDL
	// interfaces, policy files, schema files (default: empty).
	Resources fs.FS
	// Transports carries the gateway transports, keyed by scheme.
	Transports *gateway.Registry
	// FullIngest disables the streaming ingest path: wire XML is always
	// parsed into a DOM tree and re-encoded, and no per-queue path
	// projection is applied. Test reference for
	// TestProjectedIngestDifferential; not an operating mode.
	FullIngest bool
	// MaxBacklog bounds the scheduler backlog admission control tolerates:
	// when more unprocessed messages are waiting, ingest is shed with
	// ErrOverloaded (HTTP: 429 Retry-After) instead of growing the backlog
	// without bound. Zero disables the bound. Shedding is deterministic —
	// purely a function of the backlog size at admission, no sampling.
	MaxBacklog int
	// CheckpointInterval is the time trigger of the fuzzy checkpoint
	// scheduler: a checkpoint runs at least this often while the engine is
	// up, bounding replay after a crash even on an idle node. Zero disables
	// the time trigger; the scheduler still starts when the store has a WAL
	// soft budget (Store.Store.WALSoftBudget / WALHardBudget), checkpointing
	// whenever the live WAL outgrows it or too many buffered pages are
	// dirty. Checkpoints are fuzzy — commits keep flowing while they run.
	CheckpointInterval time.Duration
}

// DefaultBatchSize is the tuned default for Config.BatchSize.
const DefaultBatchSize = 32

// Stats are engine counters.
type Stats struct {
	Processed      uint64
	RulesEvaluated uint64
	RulesFired     uint64 // produced at least one update
	Enqueued       uint64
	Resets         uint64
	Errors         uint64
	Deadlocks      uint64
	Collected      uint64
	Backlog        int

	// Degraded is set after a permanent storage failure: the engine keeps
	// serving reads but refuses ingest (gateways shed with 503) and
	// workers park their claims instead of routing them to error queues.
	// StorageError carries the failure that tripped it.
	Degraded     bool
	StorageError string

	// IngestShed counts enqueues refused with ErrOverloaded because the
	// scheduler backlog was at Config.MaxBacklog.
	IngestShed uint64

	// BatchesClaimed counts scheduler claim rounds; AvgBatchSize is the
	// mean number of messages claimed per round (set-oriented execution
	// amortizes per-message overhead by this factor). DeadlockRequeues
	// counts messages handed back to the scheduler after exhausting
	// their deadlock retry budget instead of being routed to an error
	// queue — nothing is wrong with such a message, only with the timing.
	BatchesClaimed   uint64
	AvgBatchSize     float64
	DeadlockRequeues uint64

	// IngestBytesPooled counts wire bytes read through pooled gateway
	// receive buffers (the streaming ingest path copies what it keeps, so
	// the transport can recycle its read buffer immediately).
	IngestBytesPooled uint64

	// GatewaySent counts the transfers the outgoing gateway senders
	// completed, GatewaySendErrors those of them that failed and became
	// <disconnectedTransport/> error messages. GatewayConsumeCommits counts
	// the transactions that marked them processed: GatewaySent over it is
	// the average consume batch (1 on an idle or paced node).
	GatewaySent           uint64
	GatewayConsumeCommits uint64
	GatewaySendErrors     uint64

	// PipelinedCommits counts the worker transactions that pre-committed and
	// went on without waiting for the log, DurabilityWaits the waits for the
	// log that made them durable: the first over the second is the number of
	// transactions per flush wait (1 on an idle or paced node).
	// UndurableBatches is a gauge: the pre-committed worker transactions not
	// yet found durable, at most undurableCap.
	PipelinedCommits uint64
	DurabilityWaits  uint64
	UndurableBatches int

	// WALShed counts enqueues refused because the live WAL reached the
	// hard budget.
	WALShed uint64

	// Store holds the page store's counters: storage health (live WAL,
	// dirty pages, checkpoints, the last recovery) and write-back.
	Store store.Stats

	// QueueReadsProbed counts the qs:queue() reads answered from the
	// property index, QueueReadsScanned those that read the whole queue;
	// QueueDocsProbed and QueueDocsScanned count the documents each kind
	// fetched.
	QueueReadsProbed  uint64
	QueueReadsScanned uint64
	QueueDocsProbed   uint64
	QueueDocsScanned  uint64

	// GCPasses counts the retention passes that committed (CollectGarbage),
	// GCPassNs the wall time they took together: pick, unlink, and the one
	// commit each waits for.
	GCPasses uint64
	GCPassNs uint64
}

// Engine is a running Demaq server instance.
type Engine struct {
	cfg    Config
	log    *slog.Logger
	ms     *msgstore.Store
	prog   *rule.Program
	slices *slicing.Manager
	lm     *locks.LockManager
	sched  *scheduler
	timers *timerService
	gws    *gatewayService
	dur    *durabilityStage

	txnSeq atomic.Uint64

	// decls indexes the application's queue declarations by name; queue
	// kind and schema lookups sit on the per-message hot path.
	decls map[string]*qdl.QueueDecl

	// projs holds the static per-queue path projections derived from the
	// compiled program (nil entry / missing key = full ingest for that
	// queue). Like prog it is replaced only by Reload on an idle engine.
	projs map[string]*xmldom.Projection

	// probeFloor is the id of the first message whose properties prog
	// computed: an index-probed qs:queue() read reads every message below
	// it, whose properties (and multi-valued markers) an older build or
	// application may have computed differently. Replaced with prog.
	probeFloor msgstore.MsgID

	stats struct {
		processed, rulesEval, rulesFired, enqueued, resets, errors, deadlocks, collected atomic.Uint64
		batches, batchMsgs, deadlockRequeues, ingestShed, walShed                        atomic.Uint64
		gatewaySent, gatewayConsumeCommits, gatewaySendErrors                            atomic.Uint64
		pipelinedCommits, durabilityWaits                                                atomic.Uint64
		queueProbed, queueScanned, queueProbedDocs, queueScannedDocs                     atomic.Uint64
		gcPasses, gcPassNs                                                               atomic.Uint64
	}

	// degraded flips (one-way, until restart) when the store reports a
	// permanent I/O failure; storageErr holds the error that tripped it.
	degraded   atomic.Bool
	storageErr atomic.Value // error

	// closing flips when Shutdown begins: admission refuses new ingest
	// (ErrShutdown) while in-flight work drains.
	closing atomic.Bool

	schemas map[string]*schema.Schema

	wg       sync.WaitGroup
	workers  sync.WaitGroup // the rule workers: the durability stage outlives them
	stopGC   chan struct{}
	stopCkpt chan struct{}
	started  bool
	mu       sync.Mutex
}

// New opens the store and deploys the application program.
func New(cfg Config, app *qdl.Application) (*Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 32
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	// Store defaulting: the nested page-store options default only when
	// fully zero — a caller that sets any page-store field (a buffer size,
	// a durability choice) owns the whole struct and is taken verbatim,
	// never silently overridden. msgstore.Open defaults the document cache.
	if cfg.Store.Store == (store.Options{}) {
		cfg.Store.Store = store.DefaultOptions()
	}
	if cfg.Resources == nil {
		cfg.Resources = fstest.MapFS{}
	}
	if cfg.Transports == nil {
		cfg.Transports = gateway.NewRegistry()
	}
	ms, err := msgstore.Open(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		log:   cfg.Logger,
		ms:    ms,
		lm:    locks.NewLockManager(),
		sched: newScheduler(),
	}
	if err := e.deploy(app); err != nil {
		ms.Close()
		return nil, err
	}
	// Rebuild the rest of the derived state: scheduler backlog, pending
	// timers.
	e.timers = newTimerService(e)
	e.gws = newGatewayService(e)
	e.dur = newDurabilityStage(e)
	for _, q := range app.Queues {
		switch q.Kind {
		case qdl.KindOutgoingGateway:
			e.gws.declareOutgoing(q) // its sender reads the queue from the start
			continue
		case qdl.KindIncomingGateway:
			e.gws.declareIncoming(q)
		}
		for _, m := range ms.UnprocessedAfter(q.Name, 0, math.MaxInt, nil) {
			if q.Kind == qdl.KindEcho {
				e.timers.schedule(q.Name, m.ID)
			} else {
				e.sched.Add(q.Name, m.ID)
			}
		}
	}
	return e, nil
}

// deploy makes app the engine's application. It compiles the program,
// creates the queues and collections the application declares (those the
// store holds already stay as they are), declares every queue to the
// scheduler, and derives what the engine keeps of the program: the queue
// declarations, the per-queue path projections, the probe floor, and the
// slices with the persisted resets replayed. Slice membership needs no
// rebuild: it is read off the message store, so a new slicing sees the
// messages enqueued before it. New deploys onto the store it has just
// opened, Reload onto an idle engine under e.mu.
func (e *Engine) deploy(app *qdl.Application) error {
	prog, err := rule.Compile(app, e.cfg.Rules)
	if err != nil {
		return err
	}
	// Rules on echo and outgoing gateway queues would race with the
	// engine-internal consumers of those queues; reject them early.
	for _, q := range app.Queues {
		if q.Kind == qdl.KindEcho || q.Kind == qdl.KindOutgoingGateway {
			if plan := prog.QueuePlans[q.Name]; plan != nil && len(plan.Rules) > 0 {
				return fmt.Errorf("engine: rules cannot be attached to %s queue %q", q.Kind, q.Name)
			}
		}
	}
	decls := make(map[string]*qdl.QueueDecl, len(app.Queues))
	for _, q := range app.Queues {
		mode := msgstore.Persistent
		if !q.Persistent {
			mode = msgstore.Transient
		}
		if _, err := e.ms.CreateQueue(q.Name, mode, q.Priority); err != nil {
			return err
		}
		e.sched.DeclareQueue(q.Name, q.Priority)
		decls[q.Name] = q
	}
	for _, c := range app.Collections {
		if err := e.ms.CreateCollection(c.Name); err != nil {
			return err
		}
	}
	slices, err := e.openSlices(prog)
	if err != nil {
		return err
	}
	e.prog, e.decls, e.slices = prog, decls, slices
	// Records stored under an older projection carry its fingerprint; a
	// mismatch at read time falls back to full materialization, so no
	// stored message ever loses data to a rule change.
	e.projs = e.computeProjections(prog, app)
	e.probeFloor = e.ms.NextID()
	e.schemas = nil
	return nil
}

// Reload replaces the running application program — the dynamic queue and
// rule evolution the paper lists as future work (Sec. 5: "each time an
// application evolves, the processing system has to be shut down and
// restarted. Clearly, this is unacceptable for zero-downtime
// environments"). It deploys the new application as New does, under these
// guards:
//
//   - the engine must be idle (no message mid-processing): callers Drain
//     first; Reload fails otherwise rather than risking rules changing
//     under an in-flight pending update list;
//   - queues may be added but not removed, and an existing queue's kind
//     and mode are immutable (messages persist under the old contract);
//   - gateway and echo queues cannot be added at runtime (transports and
//     endpoint subscriptions are wired at Start);
//   - rules, properties, slicings and collections may change freely.
func (e *Engine) Reload(app *qdl.Application) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.sched.Idle() {
		return fmt.Errorf("engine: reload requires an idle engine (drain first)")
	}

	// Validate queue evolution.
	for _, q := range app.Queues {
		old, exists := e.decls[q.Name]
		if !exists {
			if q.Kind != qdl.KindBasic {
				return fmt.Errorf("engine: cannot add %s queue %q at runtime", q.Kind, q.Name)
			}
			continue
		}
		if old.Kind != q.Kind {
			return fmt.Errorf("engine: queue %q cannot change kind (%s → %s)", q.Name, old.Kind, q.Kind)
		}
		if old.Persistent != q.Persistent {
			return fmt.Errorf("engine: queue %q cannot change mode", q.Name)
		}
	}
	for name := range e.decls {
		found := false
		for _, q := range app.Queues {
			if q.Name == name {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("engine: queue %q cannot be removed at runtime", name)
		}
	}

	if err := e.deploy(app); err != nil {
		return err
	}
	e.log.Info("application reloaded",
		"queues", len(app.Queues), "rules", len(app.Rules), "slicings", len(app.Slicings))
	return nil
}

// openSlices builds the slicing view of a program over the message store and
// replays the persisted resets into it.
func (e *Engine) openSlices(prog *rule.Program) (*slicing.Manager, error) {
	sm := slicing.NewManager(e.ms, prog.Properties)
	for name, propName := range prog.SlicingProps {
		sm.Define(name, propName)
	}
	events, err := e.ms.ResetEvents()
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		sm.Reset(ev)
	}
	return sm, nil
}

// computeProjections derives the per-queue path projections used by the
// streaming ingest path. Only queues whose payloads take the streaming
// encoder qualify: basic and incoming-gateway kinds (echo and outgoing
// queues are consumed by engine services that read whole documents),
// persistent mode (transient messages live only as their cached tree,
// which must be complete), and no schema (validation walks the whole
// document, so projection would force an immediate full decode). A nil
// projection from the analysis (imprecise rules, `//` descents, or a
// union that covers the document anyway) simply leaves the queue out.
func (e *Engine) computeProjections(prog *rule.Program, app *qdl.Application) map[string]*xmldom.Projection {
	if e.cfg.FullIngest {
		return nil
	}
	projs := map[string]*xmldom.Projection{}
	for _, q := range app.Queues {
		if q.Kind != qdl.KindBasic && q.Kind != qdl.KindIncomingGateway {
			continue
		}
		if !q.Persistent || q.Schema != "" {
			continue
		}
		if p := prog.QueueProjection(q.Name); p != nil {
			projs[q.Name] = p
		}
	}
	return projs
}

// projFP returns the projection fingerprint of a queue, or 0 when the
// queue ingests full documents.
func (e *Engine) projFP(queue string) uint64 {
	if p := e.projs[queue]; p != nil {
		return p.Fingerprint()
	}
	return 0
}

// Projection exposes the active path projection of a queue (nil = full
// ingest). Introspection and tests.
func (e *Engine) Projection(queue string) *xmldom.Projection { return e.projs[queue] }

// Program exposes the compiled application.
func (e *Engine) Program() *rule.Program { return e.prog }

// Config returns the configuration in effect, defaults filled in
// (introspection, tests).
func (e *Engine) Config() Config { return e.cfg }

// MessageStore exposes the message store (introspection, tests).
func (e *Engine) MessageStore() *msgstore.Store { return e.ms }

// Slices exposes the slicing manager.
func (e *Engine) Slices() *slicing.Manager { return e.slices }

// Start launches the worker pool and background services.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	e.wg.Add(1)
	go e.dur.loop()
	for i := 0; i < e.cfg.Workers; i++ {
		e.workers.Add(1)
		go e.worker()
	}
	e.timers.start()
	e.gws.start()
	if e.cfg.GCInterval > 0 {
		e.stopGC = make(chan struct{})
		e.wg.Add(1)
		go e.gcLoop()
	}
	if e.cfg.CheckpointInterval > 0 || e.cfg.Store.Store.WALSoftBudget > 0 || e.cfg.Store.Store.WALHardBudget > 0 {
		e.stopCkpt = make(chan struct{})
		e.wg.Add(1)
		go e.checkpointLoop()
	}
}

// Stop shuts the engine down and closes the store.
func (e *Engine) Stop() error {
	e.mu.Lock()
	if !e.started {
		e.mu.Unlock()
		return e.ms.Close()
	}
	e.started = false
	e.mu.Unlock()
	e.sched.Close()
	e.timers.shutdown()
	e.gws.stop()
	if e.stopGC != nil {
		close(e.stopGC)
	}
	if e.stopCkpt != nil {
		close(e.stopCkpt)
	}
	// The workers feed the durability stage: it settles what they leave
	// behind and exits once they are gone.
	e.workers.Wait()
	e.dur.close()
	e.wg.Wait()
	// ms.Close runs a final quiescent checkpoint: a clean shutdown leaves
	// nothing for the next Open to replay.
	return e.ms.Close()
}

// Drain blocks until the scheduler has no pending or in-flight work — a
// claim is in flight until the transaction that processed it is durable —
// and every outgoing gateway message has been sent and consumed, or the
// timeout elapses. Timers that have not fired are not waited for.
func (e *Engine) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.sched.Idle() && e.gws.idle() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return e.sched.Idle() && e.gws.idle()
}

// Shutdown stops the engine gracefully: admission is closed first
// (ErrShutdown), incoming gateway endpoints are unsubscribed so no new
// transfer is acknowledged after close begins, in-flight batches and
// outgoing transfers get up to drainTimeout to finish, and only then is
// the store closed (flushing the WAL). It returns whether the drain
// completed — on false, whatever was still in flight stays unprocessed in
// its persistent queue and resumes on the next start, exactly as after a
// crash.
func (e *Engine) Shutdown(drainTimeout time.Duration) (drained bool, err error) {
	e.closing.Store(true)
	e.gws.stopIncoming()
	drained = e.Drain(drainTimeout)
	return drained, e.Stop()
}

// noteStorageError inspects an error from the storage layer and flips the
// engine into degraded read-only mode when it is permanent — a dead or
// full device, or a sticky WAL failure the store already latched.
// Transient errors were retried below and never reach this point as
// failures; everything else is message-level, not device-level.
func (e *Engine) noteStorageError(err error) {
	if err == nil {
		return
	}
	if !vfs.IsPermanent(err) && e.ms.DiskError() == nil {
		return
	}
	if e.degraded.CompareAndSwap(false, true) {
		e.storageErr.Store(err)
		e.log.Error("permanent storage failure: entering degraded read-only mode", "err", err)
	}
}

// Degraded reports whether the engine is in degraded read-only mode.
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// StorageError returns the failure that tripped degraded mode, if any.
func (e *Engine) StorageError() error {
	err, _ := e.storageErr.Load().(error)
	return err
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	st := Stats{
		Processed:        e.stats.processed.Load(),
		RulesEvaluated:   e.stats.rulesEval.Load(),
		RulesFired:       e.stats.rulesFired.Load(),
		Enqueued:         e.stats.enqueued.Load(),
		Resets:           e.stats.resets.Load(),
		Errors:           e.stats.errors.Load(),
		Deadlocks:        e.stats.deadlocks.Load(),
		Collected:        e.stats.collected.Load(),
		Backlog:          e.sched.Backlog(),
		BatchesClaimed:   e.stats.batches.Load(),
		DeadlockRequeues: e.stats.deadlockRequeues.Load(),
		IngestShed:       e.stats.ingestShed.Load(),

		GatewaySent:           e.stats.gatewaySent.Load(),
		GatewayConsumeCommits: e.stats.gatewayConsumeCommits.Load(),
		GatewaySendErrors:     e.stats.gatewaySendErrors.Load(),

		PipelinedCommits: e.stats.pipelinedCommits.Load(),
		DurabilityWaits:  e.stats.durabilityWaits.Load(),
		UndurableBatches: e.dur.undurable(),

		QueueReadsProbed:  e.stats.queueProbed.Load(),
		QueueReadsScanned: e.stats.queueScanned.Load(),
		QueueDocsProbed:   e.stats.queueProbedDocs.Load(),
		QueueDocsScanned:  e.stats.queueScannedDocs.Load(),
		GCPasses:          e.stats.gcPasses.Load(),
		GCPassNs:          e.stats.gcPassNs.Load(),
	}
	if st.BatchesClaimed > 0 {
		st.AvgBatchSize = float64(e.stats.batchMsgs.Load()) / float64(st.BatchesClaimed)
	}
	st.IngestBytesPooled = e.cfg.Transports.IngestBytesPooled()
	st.WALShed = e.stats.walShed.Load()
	st.Store = e.ms.PageStore().Stats()
	st.Degraded = e.degraded.Load()
	if err := e.StorageError(); err != nil {
		st.StorageError = err.Error()
	}
	return st
}

func (e *Engine) queueKind(name string) qdl.QueueKind {
	if q := e.decls[name]; q != nil {
		return q.Kind
	}
	return qdl.KindBasic
}

func (e *Engine) queueDecl(name string) *qdl.QueueDecl {
	return e.decls[name]
}
