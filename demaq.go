// Package demaq is a declarative XML message processing system: a Go
// implementation of the Demaq model from "Demaq: A Foundation for
// Declarative XML Message Processing" (Böhm, Kanne, Moerkotte, CIDR 2007).
//
// A Demaq application is a set of XML message queues and fully declarative
// rules: queues (and slicings — virtual queues grouping correlated
// messages) are declared in the Queue Definition Language, application
// logic is expressed as XQuery-based rules that react to message arrival
// exclusively by creating new messages. The engine persists messages in a
// recoverable append-only store, schedules rule evaluation with
// transactional exactly-once semantics, retains messages according to
// declarative slice lifetimes, and talks to remote nodes through gateway
// queues.
//
//	srv, err := demaq.Open(dir, `
//	    create queue in  kind basic mode persistent;
//	    create queue out kind basic mode persistent;
//	    create rule respond for in
//	      if (//ping) then do enqueue <pong>{//ping/text()}</pong> into out;
//	`, nil)
//	srv.Start()
//	srv.Enqueue("in", "<ping>hello</ping>", nil)
//	srv.Drain(time.Second)
//	msgs, _ := srv.Queue("out")
package demaq

import (
	"fmt"
	"io/fs"
	"log/slog"
	"time"

	"demaq/internal/engine"
	"demaq/internal/gateway"
	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// Options configure a server. The zero value (nil pointer) gives production
// defaults: 4 workers, slice-granularity locking, durable commits,
// materialized slices, all rule optimizations.
type Options struct {
	// Workers sets the number of concurrent message processors.
	Workers int
	// BatchSize caps how many messages a worker claims, evaluates and
	// commits as one set-oriented unit (0 = tuned default, currently 32;
	// 1 = one message per transaction, each a batch of one). Larger
	// batches amortize transaction, locking and WAL-commit overhead;
	// failures bisect down to batches of one, and batches of low-priority
	// work yield to higher-priority arrivals between messages.
	BatchSize int
	// CoarseLocking locks whole queues and whole slicings where the default
	// locks single messages and slices (the experiment E2 baseline; slower
	// under contention, with the same serializability).
	CoarseLocking bool
	// NoSync disables fsync on commit, trading the durability of the most
	// recent transactions for throughput (experiment A3).
	NoSync bool
	// NoMaterializedSlices keeps no derived index over the message store:
	// slice access re-runs the slice definition as a queue scan instead of
	// reading a range of the property B-tree, and rule dispatch probes
	// message by message (experiment E1 baseline).
	NoMaterializedSlices bool
	// NoRuleOptimizations disables condition dispatch (element triggers,
	// property prefilters) and the inlining of fixed properties (view
	// merging): every rule is evaluated for every message, as a compiled
	// program like any other (experiment E4 baseline).
	NoRuleOptimizations bool
	// GCInterval enables periodic retention garbage collection.
	GCInterval time.Duration
	// MaxIngestBacklog bounds the scheduler backlog admission control
	// tolerates: further external enqueues are shed with engine.ErrOverloaded
	// (HTTP: 429 with Retry-After) until workers catch up. Zero disables
	// the bound.
	MaxIngestBacklog int
	// WALSoftBudget and WALHardBudget bound the live WAL (the bytes a
	// crash right now would replay through) in bytes. Past the soft budget
	// commits are throttled and the background checkpointer runs; at the
	// hard budget new ingest is shed with engine.ErrOverloaded (HTTP: 429
	// with Retry-After) until a checkpoint advances the log head. With a
	// hard budget set, a soft budget of zero or not below it is half the
	// hard budget. Zero for both leaves the WAL unbudgeted.
	WALSoftBudget int64
	WALHardBudget int64
	// CheckpointInterval runs a fuzzy checkpoint at least this often,
	// bounding crash-recovery replay even on an idle node. Zero disables
	// the time trigger (budget triggers, if configured, still apply).
	CheckpointInterval time.Duration
	// Resources resolves WSDL, policy and schema files referenced by the
	// application.
	Resources fs.FS
	// SimNetwork attaches the simulated in-process network transport
	// (addresses "sim://...").
	SimNetwork bool
	// EnableHTTP attaches the HTTP transport (addresses "http://...").
	EnableHTTP bool
	// Logger receives engine diagnostics.
	Logger *slog.Logger
}

// Message is a queued message as seen through the public API.
type Message struct {
	ID        uint64
	Queue     string
	XML       string
	Props     map[string]string
	Enqueued  time.Time
	Processed bool
}

// Stats reports engine counters.
type Stats = engine.Stats

// Server is a running Demaq node.
type Server struct {
	eng  *engine.Engine
	net  *gateway.Network
	http *gateway.HTTPTransport
}

// Open loads (or re-loads after a restart) the application program in
// source form and opens the data directory, running crash recovery. The
// server does not process messages until Start is called.
func Open(dir, source string, opts *Options) (*Server, error) {
	app, err := qdl.Parse(source)
	if err != nil {
		return nil, err
	}
	return OpenApplication(dir, app, opts)
}

// OpenApplication is Open for a pre-parsed application.
func OpenApplication(dir string, app *qdl.Application, opts *Options) (*Server, error) {
	if opts == nil {
		opts = &Options{}
	}
	srv := &Server{}
	if opts.SimNetwork {
		srv.net = gateway.NewNetwork(0)
	}
	if opts.EnableHTTP {
		srv.http = gateway.NewHTTPTransport()
	}
	return srv.open(dir, app, opts)
}

// open builds the engine of a server whose transports are already set.
func (s *Server) open(dir string, app *qdl.Application, opts *Options) (*Server, error) {
	reg := gateway.NewRegistry()
	if s.net != nil {
		reg.Add(s.net)
	}
	if s.http != nil {
		reg.Add(s.http)
	}
	eng, err := engine.New(engineConfig(dir, opts, reg), app)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	return s, nil
}

// engineConfig is the one mapping from Options to the engine's
// configuration; fields Options does not expose keep their zero value,
// which is the production default throughout engine.Config.
func engineConfig(dir string, opts *Options, reg *gateway.Registry) engine.Config {
	storeOpts := msgstore.DefaultOptions()
	storeOpts.Store.SyncCommits = !opts.NoSync
	storeOpts.Store.WALSoftBudget = opts.WALSoftBudget
	storeOpts.Store.WALHardBudget = opts.WALHardBudget
	storeOpts.NoPropertyIndex = opts.NoMaterializedSlices
	cfg := engine.Config{
		Dir:                dir,
		Workers:            opts.Workers,
		BatchSize:          opts.BatchSize,
		Store:              storeOpts,
		Rules:              rule.Options{Unoptimized: opts.NoRuleOptimizations},
		GCInterval:         opts.GCInterval,
		Logger:             opts.Logger,
		Resources:          opts.Resources,
		Transports:         reg,
		MaxBacklog:         opts.MaxIngestBacklog,
		CheckpointInterval: opts.CheckpointInterval,
	}
	if opts.CoarseLocking {
		cfg.Granularity = engine.LockQueue
	}
	return cfg
}

// Start launches message processing and background services.
func (s *Server) Start() { s.eng.Start() }

// Close stops the server and closes the store. The data directory can be
// re-opened with the same application to resume processing.
func (s *Server) Close() error {
	err := s.eng.Stop()
	if s.net != nil {
		s.net.Close()
	}
	if s.http != nil {
		s.http.Close()
	}
	return err
}

// Shutdown stops the server gracefully: new ingest is refused (HTTP: 503),
// incoming gateway endpoints stop acknowledging, in-flight batches and
// outgoing transfers get up to drainTimeout to finish, and the store is
// closed with the WAL flushed. It reports whether the drain completed —
// on false, leftover work stays unprocessed in its persistent queues and
// resumes on the next Open/Start, exactly as after a crash.
func (s *Server) Shutdown(drainTimeout time.Duration) (bool, error) {
	drained, err := s.eng.Shutdown(drainTimeout)
	if s.net != nil {
		s.net.Close()
	}
	if s.http != nil {
		s.http.Close()
	}
	return drained, err
}

// Drain waits until no messages are pending or in flight (timers excluded),
// or the timeout elapses; it reports whether the system became idle.
func (s *Server) Drain(timeout time.Duration) bool { return s.eng.Drain(timeout) }

// Enqueue inserts an XML message into a queue; props set explicit property
// values (they must be declared on the queue, or be system properties such
// as "Sender", "timeout", "target").
func (s *Server) Enqueue(queue, xml string, props map[string]string) (uint64, error) {
	var explicit map[string]xdm.Value
	if len(props) > 0 {
		explicit = make(map[string]xdm.Value, len(props))
		for k, v := range props {
			explicit[k] = xdm.NewString(v)
		}
	}
	id, err := s.eng.EnqueueXML(queue, xml, explicit)
	return uint64(id), err
}

// Queue returns the live messages of a queue in arrival order.
func (s *Server) Queue(name string) ([]Message, error) {
	msgs, err := s.eng.MessageStore().Messages(name)
	if err != nil {
		return nil, err
	}
	out := make([]Message, 0, len(msgs))
	for _, m := range msgs {
		doc, err := s.eng.MessageStore().Doc(m.ID)
		if err != nil {
			return nil, err
		}
		props := make(map[string]string, len(m.Props))
		for k, v := range m.Props {
			props[k] = v.StringValue()
		}
		out = append(out, Message{
			ID: uint64(m.ID), Queue: m.Queue, XML: xmldom.Serialize(doc),
			Props: props, Enqueued: m.Enqueued, Processed: m.Processed,
		})
	}
	return out, nil
}

// Queues lists the declared queue names.
func (s *Server) Queues() []string { return s.eng.MessageStore().QueueNames() }

// SliceMembers returns the IDs of the messages currently visible in a
// slice (introspection).
func (s *Server) SliceMembers(slicing, key string) []uint64 {
	ids := s.eng.Slices().SliceMembers(slicing, key)
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// AddMasterData appends a document to a collection (fn:collection).
func (s *Server) AddMasterData(collection, xml string) error {
	doc, err := xmldom.ParseString(xml)
	if err != nil {
		return err
	}
	return s.eng.MessageStore().AddToCollection(collection, doc)
}

// CollectGarbage runs one retention GC pass and returns the number of
// messages physically removed.
func (s *Server) CollectGarbage() (int, error) { return s.eng.CollectGarbage() }

// Reload replaces the application program at runtime — the dynamic rule
// evolution the paper lists as future work (Sec. 5). The engine must be
// idle (Drain first); queues can be added but not removed or re-typed;
// rules, properties, slicings and collections may change freely.
func (s *Server) Reload(source string) error {
	app, err := qdl.Parse(source)
	if err != nil {
		return err
	}
	return s.eng.Reload(app)
}

// Stats returns engine counters.
func (s *Server) Stats() Stats { return s.eng.Stats() }

// OpenPeer opens a second node sharing this server's transports (simulated
// network and/or HTTP), so multi-node applications run in one process.
func (s *Server) OpenPeer(dir, source string, opts *Options) (*Server, error) {
	app, err := qdl.Parse(source)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	return (&Server{net: s.net, http: s.http}).open(dir, app, opts)
}

// ProcurementApplication is the complete QDL/QML source of the paper's
// running example (Figs. 3-10, Examples 3.1-3.5): the chemical-industry
// procurement scenario with parallel checks joined through a slicing,
// payment reminders via an echo queue, and error handling. It is used by
// examples/procurement and the integration tests.
const ProcurementApplication = qdl.ProcurementApp

// Validate parses and compiles an application without opening a store;
// useful for "demaqd -check".
func Validate(source string) error {
	app, err := qdl.Parse(source)
	if err != nil {
		return err
	}
	if _, err := rule.Compile(app, rule.DefaultOptions()); err != nil {
		return err
	}
	return nil
}

// FormatStats renders stats for human consumption.
func FormatStats(st Stats) string {
	s := fmt.Sprintf("processed=%d rules=%d fired=%d enqueued=%d resets=%d errors=%d deadlocks=%d lockwaits=%d dlrequeues=%d collected=%d backlog=%d batches=%d avgbatch=%.1f commits=%d avgcommit=%.1f",
		st.Processed, st.RulesEvaluated, st.RulesFired, st.Enqueued, st.Resets,
		st.Errors, st.Deadlocks, st.LockWaits, st.DeadlockRequeues, st.Collected, st.Backlog,
		st.BatchesClaimed, st.AvgBatchSize, st.BatchesCommitted, st.AvgCommittedBatch)
	if st.GatewaySent > 0 {
		s += fmt.Sprintf(" gw-sent=%d gw-commits=%d gw-errors=%d",
			st.GatewaySent, st.GatewayConsumeCommits, st.GatewaySendErrors)
	}
	if st.PipelinedCommits > 0 {
		s += fmt.Sprintf(" pipelined=%d dur-waits=%d follower-flushes=%d undurable=%d",
			st.PipelinedCommits, st.DurabilityWaits, st.FollowerFlushes, st.UndurableBatches)
	}
	if st.QueueReadsProbed > 0 || st.QueueReadsScanned > 0 {
		s += fmt.Sprintf(" q-probed=%d/%ddocs q-scanned=%d/%ddocs",
			st.QueueReadsProbed, st.QueueDocsProbed, st.QueueReadsScanned, st.QueueDocsScanned)
	}
	if st.SliceReads > 0 {
		s += fmt.Sprintf(" slice-reads=%d/%ddocs", st.SliceReads, st.SliceDocsRead)
	}
	if st.GCPasses > 0 {
		s += fmt.Sprintf(" gc=%d/%.2fms", st.GCPasses, float64(st.GCPassNs)/float64(st.GCPasses)/1e6)
	}
	s += fmt.Sprintf(" wal-live=%d segs=%d dirty=%d ckpts=%d",
		st.Store.WALLiveBytes, st.Store.WALSegments, st.Store.DirtyPages, st.Store.Checkpoints)
	if st.Store.PagesWritten > 0 {
		s += fmt.Sprintf(" pages-written=%d wb-flushes=%d", st.Store.PagesWritten, st.Store.WriteBackFlushes)
	}
	if st.Store.WALThrottles > 0 || st.WALShed > 0 {
		s += fmt.Sprintf(" throttled=%d wal-shed=%d", st.Store.WALThrottles, st.WALShed)
	}
	if st.Store.LastCheckpointDuration > 0 {
		s += fmt.Sprintf(" last-ckpt=%s", st.Store.LastCheckpointDuration.Round(time.Microsecond))
	}
	if st.Store.RecoveryRecordsReplayed > 0 || st.Store.LastRecoveryDuration > 0 {
		s += fmt.Sprintf(" recovered=%d in %s", st.Store.RecoveryRecordsReplayed, st.Store.LastRecoveryDuration.Round(time.Microsecond))
	}
	if st.Degraded {
		s += fmt.Sprintf(" DEGRADED(read-only: %s)", st.StorageError)
	}
	return s
}
