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
	"math/rand/v2"
	"strings"
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
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
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

	// Storage health, from the page store. WALLiveBytes is the log volume
	// the next recovery would replay through (what the WAL budgets bound);
	// WALSegments is how many segment files hold it. DirtyPages counts
	// buffered pages not yet written back. Checkpoints counts completed
	// fuzzy checkpoints; WALThrottles counts commits delayed by the
	// soft-budget ramp; WALShed counts enqueues refused because the live
	// WAL reached the hard budget. LastCheckpoint/LastRecovery are the
	// durations of the most recent checkpoint and recovery, and
	// RecoveryReplayed is how many log records that recovery replayed —
	// the bounded-recovery metric. PagesWritten counts pages written back
	// to the data file and WriteBackFlushes the log flushes those
	// write-backs waited for: the first over the second is the number of
	// pages one flush covered.
	WALLiveBytes     uint64
	WALSegments      int
	DirtyPages       int
	Checkpoints      uint64
	WALThrottles     uint64
	WALShed          uint64
	LastCheckpoint   time.Duration
	LastRecovery     time.Duration
	RecoveryReplayed uint64
	PagesWritten     uint64
	WriteBackFlushes uint64
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

	stats struct {
		processed, rulesEval, rulesFired, enqueued, resets, errors, deadlocks, collected atomic.Uint64
		batches, batchMsgs, deadlockRequeues, ingestShed, walShed                        atomic.Uint64
		gatewaySent, gatewayConsumeCommits, gatewaySendErrors                            atomic.Uint64
		pipelinedCommits, durabilityWaits                                                atomic.Uint64
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

// validateSchema checks a message against the queue's declared schema,
// compiling it on first use. Schemas whose declaration begins with '<' are
// inline documents; anything else is a file resolved via Config.Resources.
func (e *Engine) validateSchema(decl *qdl.QueueDecl, doc *xmldom.Node) error {
	e.mu.Lock()
	if e.schemas == nil {
		e.schemas = map[string]*schema.Schema{}
	}
	s, ok := e.schemas[decl.Name]
	e.mu.Unlock()
	if !ok {
		src := decl.Schema
		if !strings.HasPrefix(strings.TrimSpace(src), "<") {
			data, err := fs.ReadFile(e.cfg.Resources, src)
			if err != nil {
				return fmt.Errorf("engine: schema of queue %q: %w", decl.Name, err)
			}
			src = string(data)
		}
		var err error
		s, err = schema.Parse(src)
		if err != nil {
			return fmt.Errorf("engine: schema of queue %q: %w", decl.Name, err)
		}
		e.mu.Lock()
		e.schemas[decl.Name] = s
		e.mu.Unlock()
	}
	return s.Validate(doc)
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
	// Store defaulting: each knob defaults independently, and the nested
	// page-store options default only when fully zero — a caller that sets
	// any page-store field (a buffer size, a durability choice) owns the
	// whole struct and is taken verbatim, never silently overridden.
	if cfg.Store.Store == (store.Options{}) {
		cfg.Store.Store = store.DefaultOptions()
	}
	if cfg.Store.CacheDocs == 0 {
		cfg.Store.CacheDocs = msgstore.DefaultOptions().CacheDocs
	}
	if cfg.Resources == nil {
		cfg.Resources = fstest.MapFS{}
	}
	if cfg.Transports == nil {
		cfg.Transports = gateway.NewRegistry()
	}
	prog, err := rule.Compile(app, cfg.Rules)
	if err != nil {
		return nil, err
	}
	// Rules on echo and outgoing gateway queues would race with the
	// engine-internal consumers of those queues; reject them early.
	for _, q := range app.Queues {
		if q.Kind == qdl.KindEcho || q.Kind == qdl.KindOutgoingGateway {
			if plan := prog.QueuePlans[q.Name]; plan != nil && len(plan.Rules) > 0 {
				return nil, fmt.Errorf("engine: rules cannot be attached to %s queue %q", q.Kind, q.Name)
			}
		}
	}

	ms, err := msgstore.Open(cfg.Dir, cfg.Store)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		log:   cfg.Logger,
		ms:    ms,
		prog:  prog,
		lm:    locks.NewLockManager(),
		sched: newScheduler(),
		decls: make(map[string]*qdl.QueueDecl, len(app.Queues)),
	}
	for _, q := range app.Queues {
		e.decls[q.Name] = q
	}
	e.projs = e.computeProjections(prog, app)
	// Declare queues and collections.
	for _, q := range app.Queues {
		mode := msgstore.Persistent
		if !q.Persistent {
			mode = msgstore.Transient
		}
		if _, err := ms.CreateQueue(q.Name, mode, q.Priority); err != nil {
			ms.Close()
			return nil, err
		}
		e.sched.DeclareQueue(q.Name, q.Priority)
	}
	for _, c := range app.Collections {
		if err := ms.CreateCollection(c.Name); err != nil {
			ms.Close()
			return nil, err
		}
	}

	// Rebuild derived state: reset watermarks, scheduler backlog, pending
	// timers. Slice membership needs none: it is read off the message store.
	if e.slices, err = e.openSlices(prog); err != nil {
		ms.Close()
		return nil, err
	}
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

// ErrDegraded is returned by the ingest APIs while the engine is in
// degraded read-only mode after a permanent storage failure. It wraps
// gateway.ErrUnavailable, so transports shed the load (HTTP: 503 with
// Retry-After) instead of surfacing it as a message fault.
var ErrDegraded = fmt.Errorf("engine: degraded read-only mode after storage failure: %w", gateway.ErrUnavailable)

// ErrShutdown is returned by the ingest APIs once Shutdown has begun. It
// wraps gateway.ErrUnavailable (HTTP: 503) — from a sender's point of view
// a node draining for shutdown is about to be gone.
var ErrShutdown = fmt.Errorf("engine: shutting down: %w", gateway.ErrUnavailable)

// ErrOverloaded is returned by the ingest APIs when the scheduler backlog
// is at Config.MaxBacklog. It wraps gateway.ErrOverloaded (HTTP: 429 with
// Retry-After), the transient-overload verdict distinct from the degraded
// and shutting-down 503s: the node is healthy, retry the same request.
var ErrOverloaded = fmt.Errorf("engine: ingest backlog full: %w", gateway.ErrOverloaded)

// admitIngest is the admission decision at the top of every external
// enqueue, in verdict order: a degraded node refuses everything, a
// draining node refuses new work, and a healthy node sheds only when the
// backlog bound or the WAL hard budget is hit. The WAL check is the last
// line of the graceful-degradation ramp: past the soft budget commits are
// already throttled in the store; if the live log still reaches the hard
// budget, new work is refused (429, retryable) until the checkpointer
// advances the head — the WAL never grows without bound.
func (e *Engine) admitIngest() error {
	if e.degraded.Load() {
		return ErrDegraded
	}
	if e.closing.Load() {
		return ErrShutdown
	}
	if max := e.cfg.MaxBacklog; max > 0 && e.sched.Backlog() >= max {
		e.stats.ingestShed.Add(1)
		return ErrOverloaded
	}
	if hard := e.cfg.Store.Store.WALHardBudget; hard > 0 && int64(e.ms.PageStore().LiveLogBytes()) >= hard {
		e.stats.walShed.Add(1)
		return ErrOverloaded
	}
	return nil
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
	if !store.IsPermanent(err) && e.ms.DiskError() == nil {
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
	}
	if st.BatchesClaimed > 0 {
		st.AvgBatchSize = float64(e.stats.batchMsgs.Load()) / float64(st.BatchesClaimed)
	}
	st.IngestBytesPooled = e.cfg.Transports.IngestBytesPooled()
	ps := e.ms.PageStore().Stats()
	st.WALLiveBytes = ps.WALLiveBytes
	st.WALSegments = ps.WALSegments
	st.DirtyPages = ps.DirtyPages
	st.Checkpoints = ps.Checkpoints
	st.WALThrottles = ps.WALThrottles
	st.WALShed = e.stats.walShed.Load()
	st.LastCheckpoint = ps.LastCheckpointDuration
	st.LastRecovery = ps.LastRecoveryDuration
	st.RecoveryReplayed = ps.RecoveryRecordsReplayed
	st.PagesWritten = ps.PagesWritten
	st.WriteBackFlushes = ps.WriteBackFlushes
	st.Degraded = e.degraded.Load()
	if err := e.StorageError(); err != nil {
		st.StorageError = err.Error()
	}
	return st
}

// CollectGarbage runs one retention GC pass (Sec. 2.3.3). It may run beside
// the rule workers: each queue is collected under its exclusive lock, which
// keeps out the transactions that work in the queue (they hold its intention
// lock) and, above all, a rule's qs:queue() read (which holds it shared):
// that read lists the queue and then fetches what it listed, and a message
// removed in between would fail the rule. The collector holds one lock at a
// time and nothing else while it waits for it, so it can delay the workers
// but never deadlock with them.
func (e *Engine) CollectGarbage() (int, error) {
	if e.degraded.Load() {
		return 0, ErrDegraded
	}
	total := 0
	for _, queue := range e.ms.QueueNames() {
		n, err := e.collectQueue(queue)
		total += n
		e.stats.collected.Add(uint64(n))
		if err != nil {
			e.noteStorageError(err)
			return total, err
		}
	}
	// The resets that dismissed what is gone now go last: see PruneResets.
	if err := e.slices.PruneResets(); err != nil {
		e.noteStorageError(err)
		return total, err
	}
	return total, nil
}

func (e *Engine) collectQueue(queue string) (int, error) {
	txnID := e.txnSeq.Add(1)
	defer e.lm.ReleaseAll(txnID)
	// Only ErrDeadlock can come back, and hardly that: nobody waits for a
	// transaction that holds nothing. Ask again.
	for e.lm.Acquire(txnID, locks.Resource("q", queue), locks.X) != nil {
		time.Sleep(50 * time.Microsecond)
	}
	return e.slices.CollectQueue(queue)
}

// checkpointLoop is the fuzzy checkpoint scheduler. It polls the page
// store and checkpoints when any trigger fires: the live WAL outgrew the
// soft budget (the primary signal under load), too many buffered pages are
// dirty (bounds checkpoint write-back bursts), or CheckpointInterval
// elapsed since the last checkpoint (bounds replay on an idle node).
// Checkpoints are fuzzy: commits keep flowing while one runs, so the loop
// needs no coordination with the workers.
func (e *Engine) checkpointLoop() {
	defer e.wg.Done()
	soft := e.cfg.Store.Store.WALSoftBudget
	if hard := e.cfg.Store.Store.WALHardBudget; soft <= 0 && hard > 0 {
		soft = hard / 2
	}
	// A checkpoint rewrites every dirty page once; capping the dirty set
	// at half the buffer pool keeps each cycle's write-back burst small.
	dirtyTrigger := e.cfg.Store.Store.BufferPages / 2
	if dirtyTrigger <= 0 {
		dirtyTrigger = 512
	}
	poll := 200 * time.Millisecond
	if iv := e.cfg.CheckpointInterval; iv > 0 && iv < poll {
		poll = iv
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-e.stopCkpt:
			return
		case <-t.C:
			if e.degraded.Load() {
				continue
			}
			ps := e.ms.PageStore()
			due := soft > 0 && int64(ps.LiveLogBytes()) > soft
			if !due && dirtyTrigger > 0 {
				due = ps.Stats().DirtyPages >= dirtyTrigger
			}
			if !due && e.cfg.CheckpointInterval > 0 {
				due = time.Since(last) >= e.cfg.CheckpointInterval
			}
			if !due {
				continue
			}
			if err := ps.Checkpoint(); err != nil {
				e.noteStorageError(err)
				e.log.Error("checkpoint failed", "err", err)
				continue
			}
			last = time.Now()
		}
	}
}

func (e *Engine) gcLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-e.stopGC:
			return
		case <-t.C:
			if _, err := e.CollectGarbage(); err != nil {
				e.log.Error("gc failed", "err", err)
			}
		}
	}
}

// Enqueue inserts an external message into a queue (the API used by
// gateways, clients and tests). Property expressions of the target queue
// are evaluated; explicit props (e.g. the Sender system property) may be
// supplied.
func (e *Engine) Enqueue(queue string, doc *xmldom.Node, explicit map[string]xdm.Value) (msgstore.MsgID, error) {
	return e.admitted(e.enqueueDoc(queue, doc, explicit, nil))
}

// enqueueDoc is the first phase of Enqueue — everything up to the
// pre-commit, see admit — with an optional reliable-session snapshot staged
// into the same transaction: the transfer becoming durable and its
// retransmits becoming suppressible are then one atomic fact — the ack the
// gateway sends afterwards is never a lie, whichever side of the commit a
// crash lands on.
func (e *Engine) enqueueDoc(queue string, doc *xmldom.Node, explicit map[string]xdm.Value, sess *msgstore.SessionState) (admission, error) {
	if err := e.admitIngest(); err != nil {
		return admission{}, err
	}
	if _, ok := e.ms.Queue(queue); !ok {
		return admission{}, fmt.Errorf("engine: unknown queue %q", queue)
	}
	if decl := e.queueDecl(queue); decl != nil && decl.Schema != "" {
		if err := e.validateSchema(decl, doc); err != nil {
			return admission{}, err
		}
	}
	now := time.Now().UTC()
	system := map[string]xdm.Value{}
	props, err := e.prog.Properties.Evaluate(queue, doc, explicit, nil, system, now)
	if err != nil {
		return admission{}, err
	}
	return e.admit(queue, props, sess, func(tx *msgstore.Txn) error {
		return tx.Enqueue(queue, doc, props, now)
	})
}

// admission is an external message that is pre-committed and scheduled, and
// not yet found durable.
type admission struct {
	id msgstore.MsgID
	pc precommit
}

// admit is the tail of every external enqueue: the message, staged by stage,
// and the session snapshot, if any, are pre-committed in a transaction of
// their own, and the message is scheduled. The caller owes the admission an
// admitted before it acknowledges the message to anyone.
func (e *Engine) admit(queue string, props map[string]xdm.Value, sess *msgstore.SessionState,
	stage func(*msgstore.Txn) error) (admission, error) {
	tx := e.ms.Begin()
	if err := stage(tx); err != nil {
		tx.Abort()
		e.noteStorageError(err)
		return admission{}, err
	}
	if sess != nil {
		tx.PutSession(*sess)
	}
	staged := []stagedMsg{{queue: queue, props: props}}
	pc, err := e.precommitExternal(tx, staged)
	if err != nil {
		e.noteStorageError(err)
		return admission{}, err
	}
	return admission{id: staged[0].id, pc: pc}, nil
}

// admitted is the second phase of an external enqueue: it waits until the
// admission is durable. Only then does the message count, and only then may
// its ack — the return to the caller, the HTTP 202, the WS-RM ack — go out.
func (e *Engine) admitted(a admission, err error) (msgstore.MsgID, error) {
	if err != nil {
		return 0, err
	}
	if err := e.settle(a.pc); err != nil {
		return 0, err
	}
	e.stats.enqueued.Add(1)
	return a.id, nil
}

// EnqueueWire inserts an external message arriving as wire XML. This is
// the streaming ingest path: the bytes are encoded straight into the
// binary payload format by a SAX-style pass — no intermediate DOM tree —
// and, when the queue has a static path projection, subtrees the queue's
// rules never read are carried through as opaque byte spans and skipped at
// decode time. The encoder copies everything it keeps, so the caller may
// reuse wire after the call.
//
// Queues that cannot stream — full-ingest or text-payload configuration,
// transient mode, a declared schema (validation walks the whole
// document), echo and outgoing-gateway kinds — transparently fall back to
// parse-and-enqueue with identical semantics and error surface.
func (e *Engine) EnqueueWire(queue string, wire []byte, explicit map[string]xdm.Value) (msgstore.MsgID, error) {
	return e.admitted(e.enqueueWire(queue, wire, explicit, nil))
}

// enqueueWire is the first phase of EnqueueWire, with an optional
// reliable-session snapshot staged into the enqueue transaction (see
// enqueueDoc).
func (e *Engine) enqueueWire(queue string, wire []byte, explicit map[string]xdm.Value, sess *msgstore.SessionState) (admission, error) {
	if err := e.admitIngest(); err != nil {
		return admission{}, err
	}
	q, ok := e.ms.Queue(queue)
	if !ok {
		return admission{}, fmt.Errorf("engine: unknown queue %q", queue)
	}
	decl := e.queueDecl(queue)
	kind := e.queueKind(queue)
	if e.cfg.FullIngest ||
		q.Mode != msgstore.Persistent ||
		(decl != nil && decl.Schema != "") ||
		(kind != qdl.KindBasic && kind != qdl.KindIncomingGateway) {
		doc, err := xmldom.Parse(wire)
		if err != nil {
			return admission{}, err
		}
		return e.enqueueDoc(queue, doc, explicit, sess)
	}
	proj := e.projs[queue]
	enc, err := xmldom.StreamEncode(nil, wire, proj)
	if err != nil {
		return admission{}, err
	}
	// Decode the encoding we just produced: the partial (projected) tree
	// when a projection applied, the complete tree otherwise. It seeds the
	// doc cache and is sufficient for property evaluation — the projection
	// includes every path the queue's property expressions read. The
	// decoded strings alias enc, which is why enc is freshly allocated
	// here and never pooled.
	var (
		doc    *xmldom.Node
		fp     uint64
		pruned []string
	)
	if proj != nil {
		doc, fp, pruned, err = xmldom.DecodeProjectedOwned(enc)
		if err == nil && len(pruned) == 0 {
			// Nothing was actually pruned: the tree is complete, cache and
			// read it as such.
			fp = 0
		}
	} else {
		doc, err = xmldom.DecodeOwned(enc)
	}
	if err != nil {
		return admission{}, fmt.Errorf("engine: streaming ingest self-decode: %w", err)
	}
	now := time.Now().UTC()
	system := map[string]xdm.Value{}
	props, err := e.prog.Properties.Evaluate(queue, doc, explicit, nil, system, now)
	if err != nil {
		return admission{}, err
	}
	return e.admit(queue, props, sess, func(tx *msgstore.Txn) error {
		return tx.EnqueueEncoded(queue, enc, doc, fp, pruned, props, now)
	})
}

// EnqueueXML enqueues wire XML given as a string.
func (e *Engine) EnqueueXML(queue, xml string, explicit map[string]xdm.Value) (msgstore.MsgID, error) {
	return e.EnqueueWire(queue, []byte(xml), explicit)
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

// worker is the message-processing loop: it claims same-queue batches of up
// to BatchSize messages and processes them set-oriented. A claim of one
// message is a batch of one.
func (e *Engine) worker() {
	defer e.workers.Done()
	buf := make([]msgstore.MsgID, 0, e.cfg.BatchSize)
	for {
		queue, prio, ids, ok := e.sched.ClaimBatch(e.cfg.BatchSize, buf[:0])
		if !ok {
			return
		}
		buf = ids
		e.stats.batches.Add(1)
		e.stats.batchMsgs.Add(uint64(len(ids)))
		e.runBatch(queue, prio, ids)
	}
}

// runBatch processes a claimed batch, bisecting on failure: a batch that
// deadlocks or contains a rule error is split in half and retried, so the
// failure converges onto batches of one — whose retry and error-queue
// semantics are the reference — while the healthy majority of the batch
// still commits set-oriented. Healthy members of a failing batch are
// re-evaluated once per split level; RulesEvaluated/RulesFired count
// evaluations performed, so they run higher on such workloads — exactly as
// deadlock retries already re-count.
func (e *Engine) runBatch(queue string, prio int, ids []msgstore.MsgID) {
	switch len(ids) {
	case 0:
		return
	case 1:
		pc, err := e.processAlone(queue, ids[0], nil)
		switch {
		case err == nil:
			e.dur.add(pc, 1)
		case err == locks.ErrDeadlock:
			// Retry budget exhausted: nothing is wrong with the message
			// itself, only with the timing — hand it back to the scheduler
			// instead of poisoning an error queue.
			e.stats.deadlockRequeues.Add(1)
			e.sched.RequeueFront(queue, ids)
		case e.retryable(err):
			// A permanent storage failure is a device fault, not a message
			// fault: park the message back on the scheduler (it stays
			// unprocessed and will be retried after a restart on a healthy
			// disk) and flip to degraded mode. Routing to the error queue
			// would both misattribute the failure and need the same dead
			// disk to commit.
			e.noteStorageError(err)
			e.sched.RequeueFront(queue, ids)
			time.Sleep(10 * time.Millisecond) // don't spin against a dead device
		default:
			// Not even the error path can consume it: the message stays
			// unprocessed in its queue until the next start.
			e.log.Error("failed to consume message after error", "id", ids[0], "err", err)
			e.sched.DoneN(1)
		}
		return
	}
	attempted, pc, err := e.processBatch(queue, prio, ids, nil)
	if err == nil {
		e.dur.add(pc, len(attempted))
		return
	}
	if err == locks.ErrDeadlock {
		e.stats.deadlocks.Add(1)
	}
	mid := len(attempted) / 2
	e.runBatch(queue, prio, attempted[:mid])
	e.runBatch(queue, prio, attempted[mid:])
}

// processAlone runs one message as a batch of one until it is consumed.
// Deadlocks retry with jittered exponential backoff, up to MaxRetries; any
// other failure that says something about the message is consumed on the
// next attempt, together with the error message of its cause (Sec. 3.6). A
// non-nil cause starts there. It returns the failure it gave up on: the
// deadlock that spent the budget, a storage failure, or the failure of the
// consume itself.
func (e *Engine) processAlone(queue string, id msgstore.MsgID, cause error) (precommit, error) {
	ids := []msgstore.MsgID{id}
	backoff := 50 * time.Microsecond
	for attempt := 0; ; attempt++ {
		_, pc, err := e.processBatch(queue, 0, ids, cause)
		switch {
		case err == nil:
			return pc, nil
		case err == locks.ErrDeadlock:
			e.stats.deadlocks.Add(1)
			if attempt >= e.cfg.MaxRetries {
				return pc, err
			}
			// Jittered backoff: a deterministic schedule would march the
			// colliding workers into the same conflict again.
			time.Sleep(backoff + rand.N(backoff))
			if backoff < 10*time.Millisecond {
				backoff *= 2
			}
		case e.retryable(err) || cause != nil:
			return pc, err
		default:
			cause = err
		}
	}
}

// docFetcher returns a memoized projected-document fetch for one message.
// evalMessage calls it only when dispatch actually selects a rule (or needs
// element names for a trigger), so a message every rule is dispatched away
// from never decodes its payload; the first caller pays the decode, later
// callers in the same transaction get the cached result.
func (e *Engine) docFetcher(queue string, id msgstore.MsgID) func() (*xmldom.Node, []string, error) {
	var (
		doc    *xmldom.Node
		pruned []string
		err    error
		done   bool
	)
	return func() (*xmldom.Node, []string, error) {
		if !done {
			doc, pruned, err = e.ms.DocProjected(id, e.projFP(queue))
			done = true
		}
		return doc, pruned, err
	}
}

// probeMasks resolves the queue plan's property prefilters for a whole
// claimed batch through the message store's secondary index: one (property,
// value) range scan over the batch's id window per planner probe, instead
// of per-message map checks. Bit r of masks[i] set means ids[i] provably
// satisfies every predicate of plan.Rules[r]; an unset bit falls back to
// the per-message check inside SelectIndexed (the posting may be absent
// because the property is absent, which admits the rule — or because the
// posting raced the commit publish, where propMatch stays authoritative).
// Returns nil when the plan or the store rules probing out.
func (e *Engine) probeMasks(queue string, ids []msgstore.MsgID) []uint64 {
	if len(ids) < 2 {
		return nil
	}
	plan := e.prog.QueuePlans[queue]
	if plan == nil || !plan.IndexDispatchable() || !e.ms.PropertyIndexEnabled() {
		return nil
	}
	lo, hi := ids[0], ids[0]
	pos := make(map[msgstore.MsgID]int, len(ids))
	for i, id := range ids {
		if id < lo {
			lo = id
		}
		if id > hi {
			hi = id
		}
		pos[id] = i
	}
	probes := plan.IndexProbes()
	masks := make([]uint64, len(ids))
	hits := make([]int, len(ids))
	var hitBuf []msgstore.MsgID
	for i := 0; i < len(probes); {
		// Probes are grouped by rule; a multi-predicate rule needs every
		// posting list of the group to hit.
		j := i
		for j < len(probes) && probes[j].Rule == probes[i].Rule {
			j++
		}
		for k := range hits {
			hits[k] = 0
		}
		for _, pr := range probes[i:j] {
			hitBuf = e.ms.PropertyIDsRange(pr.Name, pr.Value, lo, hi, hitBuf[:0])
			for _, id := range hitBuf {
				if p, ok := pos[id]; ok {
					hits[p]++
				}
			}
		}
		bit := uint64(1) << uint(probes[i].Rule)
		for p, n := range hits {
			if n == j-i {
				masks[p] |= bit
			}
		}
		i = j
	}
	return masks
}

// processBatch runs the execution-model cycle for a same-queue batch under
// one transaction ID: one home-queue lock round, per-message rule evaluation
// through a single reused evalRuntime into per-message pending update lists,
// and one combined message-store transaction that marks every message
// processed and performs every enqueue and reset — one
// prepare/persist/publish cycle and one WAL commit cohort instead of
// len(ids). The transaction is pre-committed when processBatch returns, and
// its locks released. Between messages the worker polls the scheduler: if
// work of strictly higher priority became runnable, the evaluated prefix
// commits and the rest of the batch is requeued in order.
//
// A batch of one is the reference: a rule error consumes the message in the
// same transaction, together with the error message naming the failing rule
// (Sec. 3.6). With a cause the message has already failed for good: nothing
// is evaluated, the message is consumed with the error message of the cause.
// In a larger batch any failure — deadlock or rule error — aborts the batch
// with no effects applied (the transaction never commits, all locks are
// released) and is reported to the caller, which bisects down to batches of
// one. It returns the prefix of ids it was responsible for (the remainder,
// if any, was requeued after preemption).
func (e *Engine) processBatch(queue string, prio int, ids []msgstore.MsgID, cause error) (attempted []msgstore.MsgID, pc precommit, err error) {
	txnID := e.txnSeq.Add(1)
	defer e.lm.ReleaseAll(txnID)

	attempted = ids
	if err := e.lockSlices(txnID, e.slices.SlicesOf(ids[0])); err != nil {
		return attempted, pc, err
	}
	// Home-queue lock: one round for the whole batch.
	mode := locks.IX
	if e.cfg.Granularity == LockQueue {
		mode = locks.X
	}
	if err := e.lm.Acquire(txnID, locks.Resource("q", queue), mode); err != nil {
		return attempted, pc, err
	}

	now := time.Now().UTC()
	rt := &evalRuntime{eng: e, txnID: txnID, queue: queue, now: now}
	masks := e.probeMasks(queue, ids)
	items := make([]batchItem, 0, len(ids))
	for i, id := range ids {
		if i > 0 && e.sched.PreemptFor(prio) {
			// Higher-priority work arrived: commit what is evaluated and
			// give the rest back, preserving order.
			e.sched.RequeueFront(queue, ids[i:])
			attempted = ids[:i]
			break
		}
		msg, ok := e.ms.Get(id)
		if !ok && cause == nil {
			return attempted, pc, fmt.Errorf("engine: message %d vanished", id)
		}
		if !ok || msg.Processed {
			continue // consumed already, or a duplicate schedule after crash recovery
		}
		fetch := e.docFetcher(queue, id)
		var (
			combined *xquery.UpdateList
			shared   bool
			failed   *ruleError
		)
		if cause != nil {
			failed = &ruleError{err: cause}
			err = e.lockMessage(txnID, id, e.slices.SlicesOf(id))
		} else {
			var mask uint64
			if masks != nil {
				mask = masks[i]
			}
			combined, shared, failed, err = e.evalMessage(rt, txnID, queue, id, fetch, msg.Props, mask, len(items) > 0)
		}
		if err == errNotBatchable {
			// This message's rules read or mutate shared state and
			// updates from earlier batch members are already pending:
			// commit the prefix, give the rest back in order. The message
			// re-runs later at the head of its own transaction.
			e.sched.RequeueFront(queue, ids[i:])
			attempted = ids[:i]
			break
		}
		if err != nil {
			return attempted, pc, err
		}
		// Re-check the processed flag now that the message lock is held: the
		// pre-lock snapshot above can race a duplicate schedule of the same
		// ID. False under the lock is final — any other processor must take
		// this lock to commit the flag.
		if cur, ok := e.ms.Get(id); !ok || cur.Processed {
			continue
		}
		if failed != nil {
			if len(ids) > 1 {
				// Fail the batch so bisection isolates the message.
				return attempted, pc, failed.err
			}
			// Error path: the message still counts as processed (Sec. 3.6);
			// the error becomes a message in the appropriate error queue. It
			// embeds the original document: use the complete tree, never a
			// projected view of it. fetch is memoized — a failing rule
			// already evaluated on the document.
			doc, pruned, _ := fetch()
			if len(pruned) > 0 {
				if full, derr := e.ms.Doc(id); derr == nil {
					doc = full
				}
			}
			if pc, err = e.applyError(txnID, queue, id, doc, failed.rule, failed.err, now); err == nil {
				e.stats.processed.Add(1)
			}
			return attempted, pc, err
		}
		dup := false
		for _, it := range items {
			if it.id == id {
				dup = true // duplicate schedule landed twice in one batch
				break
			}
		}
		if dup {
			continue
		}
		items = append(items, batchItem{id: id, props: msg.Props, updates: combined})
		if shared {
			// A shared-state message rides alone (it was first, so its
			// reads were live): close the batch behind it.
			if i+1 < len(ids) {
				e.sched.RequeueFront(queue, ids[i+1:])
				attempted = ids[:i+1]
			}
			break
		}
	}
	if len(items) == 0 {
		return attempted, pc, nil
	}
	if pc, err = e.applyBatch(txnID, queue, items, now); err != nil {
		return attempted, pc, err
	}
	e.stats.processed.Add(uint64(len(items)))
	return attempted, pc, nil
}

// lockSlices takes the exclusive locks of the slices a message belongs to
// (they are read by slice rules and advanced by resets). A transaction does
// so for its first message before it takes its home-queue lock: two
// messages of one slice are then serialized while the second holds nothing,
// instead of its queue's intention lock — which the first may need out of
// the way for a qs:queue() read, and the two would deadlock.
func (e *Engine) lockSlices(txnID uint64, memberships []slicing.Membership) error {
	if e.cfg.Granularity != LockSlice {
		return nil
	}
	for _, mb := range memberships {
		if err := e.lm.Acquire(txnID, locks.Resource("sl", mb.Slicing, mb.Key), locks.X); err != nil {
			return err
		}
	}
	return nil
}

// lockMessage takes the exclusive locks of a message and of the slices it
// belongs to, under slice locking; the home-queue lock covers both under
// queue locking.
func (e *Engine) lockMessage(txnID uint64, id msgstore.MsgID, memberships []slicing.Membership) error {
	if e.cfg.Granularity != LockSlice {
		return nil
	}
	if err := e.lm.Acquire(txnID, locks.Resource("m", fmt.Sprint(id)), locks.X); err != nil {
		return err
	}
	return e.lockSlices(txnID, memberships)
}

// errNotBatchable signals that a message's applicable rules touch shared
// state and therefore may not evaluate in the middle of a batch (whose
// earlier pending updates are not visible yet). The message is requeued
// and later runs at the head of its own transaction, where reads are live.
var errNotBatchable = fmt.Errorf("engine: message not batchable mid-batch")

// evalMessage evaluates every applicable rule of one message inside txnID
// — under the locks of the message's slices — and accumulates the pending
// updates. A rule failure comes back in failed (the per-message error
// path); deadlocks and system errors come back as err and abort the whole
// processing transaction. rt is reused across the messages of a batch; the
// per-message fields are reset here.
//
// shared reports whether any applicable rule observes or mutates shared
// state (qs:slice/qs:queue reads, resets): such a message must be the only
// one in its transaction to keep every batch equivalent to batches of one.
// With noShared set, a shared message is rejected with errNotBatchable
// before anything is locked or evaluated, so a requeued message is
// immediately claimable by another worker; past that point the exclusive
// locks of the message and of its slices are acquired.
func (e *Engine) evalMessage(rt *evalRuntime, txnID uint64, queue string, id msgstore.MsgID, fetch func() (*xmldom.Node, []string, error), props map[string]xdm.Value, probeMask uint64, noShared bool) (combined *xquery.UpdateList, shared bool, failed *ruleError, err error) {
	// Element names are the dispatch key set: computed lazily, only when
	// some applicable rule actually has an element trigger — that is the
	// first point the document is needed at all; a message whose rules are
	// all dispatched away on properties is never fetched. A projected
	// document is missing the elements inside its pruned spans, so their
	// recorded names are merged back in — the prefilter must never reject
	// a rule the full document would have selected (over-approximating is
	// harmless: the rule body re-checks its condition).
	var namesMemo map[string]bool
	var fetchErr error
	elementNames := func() map[string]bool {
		if namesMemo == nil {
			doc, pruned, err := fetch()
			if err != nil {
				fetchErr = err
				return map[string]bool{}
			}
			namesMemo = rule.ElementNames(doc)
			for _, n := range pruned {
				namesMemo[n] = true
			}
		}
		return namesMemo
	}

	memberships := e.slices.SlicesOf(id)
	combined = &xquery.UpdateList{}
	type ruleCtx struct {
		r       *rule.Rule
		slicing string
		key     string
	}
	var toRun []ruleCtx
	if plan := e.prog.QueuePlans[queue]; plan != nil {
		// probeMask carries the batch index-probe results; 0 degrades
		// SelectIndexed to the plain per-message Select.
		for _, r := range plan.SelectIndexed(props, probeMask, elementNames) {
			toRun = append(toRun, ruleCtx{r: r})
		}
	}
	for _, mb := range memberships {
		if plan := e.prog.SlicePlans[mb.Slicing]; plan != nil {
			for _, r := range plan.Select(props, elementNames) {
				toRun = append(toRun, ruleCtx{r: r, slicing: mb.Slicing, key: mb.Key})
			}
		}
	}
	if fetchErr != nil {
		return nil, false, nil, fetchErr
	}
	for _, rc := range toRun {
		if rc.r.Body.SharedState() {
			shared = true
			break
		}
	}
	if shared && noShared {
		return nil, true, nil, errNotBatchable
	}
	if err := e.lockMessage(txnID, id, memberships); err != nil {
		return nil, shared, nil, err
	}

	if len(toRun) == 0 {
		return combined, shared, nil, nil
	}
	doc, _, err := fetch()
	if err != nil {
		return nil, shared, nil, err
	}
	rt.msgID, rt.doc, rt.props = id, doc, props
	for _, rc := range toRun {
		rt.curSlicing, rt.curKey = rc.slicing, rc.key
		e.stats.rulesEval.Add(1)
		_, updates, evalErr := xquery.Eval(rc.r.Body, rt, xquery.EvalOptions{ContextDoc: doc})
		if evalErr != nil {
			if evalErr == locks.ErrDeadlock {
				return nil, shared, nil, evalErr
			}
			return nil, shared, &ruleError{rule: rc.r, err: evalErr}, nil
		}
		if updates.Len() > 0 {
			e.stats.rulesFired.Add(1)
		}
		for _, up := range updates.Updates {
			switch u := up.(type) {
			case *xquery.EnqueueUpdate:
				u.Rule = rc.r.Name
			case *xquery.ResetUpdate:
				if u.Implicit {
					// Resolve the implicit reset against the rule's slice.
					if rc.slicing == "" {
						return nil, shared, &ruleError{rule: rc.r, err: fmt.Errorf("bare 'do reset' outside a slicing rule")}, nil
					}
					u.Slicing, u.Key = rc.slicing, xdm.NewString(rc.key)
				}
			}
			combined.Append(up)
		}
	}
	return combined, shared, nil, nil
}

type ruleError struct {
	rule *rule.Rule
	err  error
}
