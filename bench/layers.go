package main

import (
	"fmt"
	"sort"
	"time"

	"demaq/internal/msgstore"
	"demaq/internal/qdl"
	"demaq/internal/rule"
	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
	"demaq/internal/xquery"
)

// The per-layer numbers come from three places, all outside the engine:
// deltas of the counters the product already keeps (Stats) and of the two
// metered seams over the whole measured window; the per-input timelines of
// the traced sub-windows; and replays — public functions of one layer timed
// alone on the inputs and messages of a fixed batch that runs through the
// node after the window.

const (
	replayInputs = 100 // inputs of the replay batch
	replayPasses = 7   // timed passes over the batch; the fastest counts
)

// counterMetrics derives the counter-based per-layer metrics from the
// first and last snapshot of the measured window.
func counterMetrics(m map[string]float64, a, b snapshot, smp sampler) {
	inputs := float64(b.delivered - a.delivered)
	per := func(x float64) float64 {
		if inputs == 0 {
			return 0
		}
		return x / inputs
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	u := func(x, y uint64) float64 { return float64(x - y) }
	wall := float64(b.at - a.at)

	m["engine.processed_per_input"] = per(u(b.eng.Processed, a.eng.Processed))
	m["engine.rules_evaluated_per_input"] = per(u(b.eng.RulesEvaluated, a.eng.RulesEvaluated))
	m["engine.fire_ratio"] = ratio(u(b.eng.RulesFired, a.eng.RulesFired), u(b.eng.RulesEvaluated, a.eng.RulesEvaluated))
	// Stats reports the mean batch size since start; the window's own mean
	// needs the two products.
	batchMsgs := b.eng.AvgBatchSize*float64(b.eng.BatchesClaimed) - a.eng.AvgBatchSize*float64(a.eng.BatchesClaimed)
	m["engine.avg_batch_size"] = ratio(batchMsgs, u(b.eng.BatchesClaimed, a.eng.BatchesClaimed))
	m["engine.deadlocks_per_input"] = per(u(b.eng.Deadlocks, a.eng.Deadlocks))
	m["engine.deadlock_requeues"] = u(b.eng.DeadlockRequeues, a.eng.DeadlockRequeues)
	m["engine.backlog_mean"] = ratio(float64(smp.backlogSum), float64(smp.backlogN))
	m["engine.backlog_max"] = float64(smp.backlogMax)
	m["engine.ingest_shed"] = u(b.eng.IngestShed, a.eng.IngestShed)
	m["engine.errors"] = u(b.eng.Errors, a.eng.Errors)

	payload := u(b.ms.PayloadEncodedBytes, a.ms.PayloadEncodedBytes) + u(b.ms.PayloadTextBytes, a.ms.PayloadTextBytes)
	m["xmldom.encoded_bytes_per_wire_byte"] = ratio(payload, float64(b.wire-a.wire))
	hits, misses := u(b.ms.DocCacheHits, a.ms.DocCacheHits), u(b.ms.DocCacheMisses, a.ms.DocCacheMisses)
	m["msgstore.doc_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["msgstore.doc_cache_evictions"] = u(b.ms.DocCacheEvictions, a.ms.DocCacheEvictions)
	m["msgstore.payload_bytes_per_input"] = per(payload)

	wal, data := b.dev[classWAL].sub(a.dev[classWAL]), b.dev[classData].sub(a.dev[classData])
	m["store.commits_per_input"] = per(u(b.ps.Commits, a.ps.Commits))
	m["store.flushes_per_input"] = per(float64(wal.Syncs + data.Syncs))
	m["store.wal_bytes_per_input"] = per(float64(wal.WriteBytes))
	m["store.data_bytes_per_input"] = per(float64(data.WriteBytes))
	m["store.write_amp"] = ratio(float64(wal.WriteBytes+data.WriteBytes), float64(b.wire-a.wire))
	m["store.read_ios_per_input"] = per(float64(wal.Reads + data.Reads))
	m["store.flush_wait_share"] = ratio(float64(wal.SyncNs+data.SyncNs), wall)
	m["store.wal_coalesced_ratio"] = ratio(u(b.ps.WALCoalesced, a.ps.WALCoalesced), u(b.ps.WALFlushCalls, a.ps.WALFlushCalls))
	bh, bm := u(b.ps.BufferHits, a.ps.BufferHits), u(b.ps.BufferMisses, a.ps.BufferMisses)
	m["store.buffer_hit_ratio"] = ratio(bh, bh+bm)
	m["store.evictions"] = u(b.ps.Evictions, a.ps.Evictions)
	m["store.checkpoints"] = u(b.ps.Checkpoints, a.ps.Checkpoints)

	passes := float64(b.gcPasses - a.gcPasses)
	m["slicing.gc_ms_per_pass"] = ratio(float64(b.gcNs-a.gcNs)/1e6, passes)
	m["slicing.gc_collected_per_pass"] = ratio(float64(b.gcCollected-a.gcCollected), passes)

	m["go.cpu_ms_per_input"] = per(float64(b.cpu-a.cpu) / 1e6)
	m["go.allocs_per_input"] = per(u(b.mallocs, a.mallocs))
	m["go.alloc_kb_per_input"] = per(u(b.allocBytes, a.allocBytes) / 1024)
	m["go.gc_pause_ms_total"] = u(b.gcPau, a.gcPau) / 1e6
	m["go.heap_peak_mb"] = float64(smp.heapPeak) / (1 << 20)
}

// gatewayTotals counts retransmissions and duplicate deliveries over the
// node's whole life. Once the node has drained every input was admitted and
// sent at least once, so whatever the seams counted beyond one per input is
// a duplicate admission or an outgoing retransmission; the client's and the
// sink's reliable endpoints report the other direction of each.
func (r *run) gatewayTotals(m map[string]float64) {
	issued := r.nextID.Load()
	retransmits := max(r.node.sim.sends.Load()-issued, 0)
	var duplicates int64
	if in := r.node.incoming(); in.admits.Load() > 0 {
		duplicates = max(in.admits.Load()-issued, 0)
	}
	if c, ok := r.cl.(*rmClient); ok {
		_, n, _ := c.rel.Stats()
		retransmits += int64(n)
	}
	if r.node.sinkRel != nil {
		_, _, n := r.node.sinkRel.Stats()
		duplicates += int64(n)
	}
	m["gateway.retransmits"] = float64(retransmits)
	m["gateway.duplicates"] = float64(duplicates)
}

// spanMetrics derives the timeline-based metrics from the traced inputs in
// [lo, hi) and returns the rows of the "where a message's time goes" table
// in µs: per span name the mean self time, under "e2e" the mean time from
// send to verified result, and under "unaccounted" the mean of what no span
// of an input covers. Means, because they add up to the whole where the
// medians of skewed parts do not.
func (r *run) spanMetrics(m map[string]float64, lo, hi int) map[string]float64 {
	dur := map[string][]float64{}
	self := map[string][]float64{}
	var accounted []float64
	for id := lo; id < hi; id++ {
		rec := r.tr.rec(id)
		if !rec.traced.Load() {
			continue
		}
		spans := rec.spans()
		if len(spans) == 0 || spans[len(spans)-1].name != "sink.recv" {
			continue // the input straddled a tracing boundary
		}
		st := selfTimes(spans)
		for _, s := range spans {
			dur[s.name] = append(dur[s.name], float64(s.end-s.start)/1e3)
			self[s.name] = append(self[s.name], float64(st[s.name])/1e3)
		}
		if total := spans[0].end - spans[0].start; total > 0 {
			accounted = append(accounted, 1-float64(st["input"])/float64(total))
		}
	}
	p := func(name string, pct float64) float64 {
		s := dur[name]
		sort.Float64s(s)
		return percentile(s, pct)
	}
	m["gateway.admit_handler_us_p50"] = p("gateway.admit_handler", 50)
	m["gateway.admit_handler_us_p95"] = p("gateway.admit_handler", 95)
	m["gateway.out_send_us_p50"] = p("gateway.out_send", 50)
	m["engine.pipeline_gap_us_p50"] = p("engine.pipeline_gap", 50)
	m["sink.recv_us_p50"] = p("sink.recv", 50)
	m["trace.inputs"] = float64(len(accounted))
	m["trace.accounted_share"] = median(accounted)
	budget := map[string]float64{"e2e": mean(dur["input"])}
	for name, v := range self {
		budget[name] = mean(v)
	}
	budget["unaccounted"] = budget["input"]
	delete(budget, "input")
	// The client's round trip minus the node's handler: framing, loopback
	// and, over WS-RM, the ack transfer. Zero where the inputs are enqueued
	// in process and there is no handler to subtract.
	if len(dur["gateway.admit_handler"]) > 0 {
		m["gateway.http_overhead_us_p50"] = median(self["client.send"])
	}
	out := r.node.sim
	out.cycleMu.Lock()
	cycles := make([]float64, len(out.cycles))
	for i, c := range out.cycles {
		cycles[i] = float64(c) / 1e3
	}
	out.cycleMu.Unlock()
	sort.Float64s(cycles)
	m["gateway.out_cycle_us_p50"] = percentile(cycles, 50)
	return budget
}

// replayRuntime is the xquery.Runtime of a rule replay: everything a rule
// can read is fetched before the timed evaluation, so the time is the
// evaluator's alone.
type replayRuntime struct {
	ms     *msgstore.Store
	queues map[string][]*xmldom.Node // shared: the node is idle during replay

	queue string
	doc   *xmldom.Node
	props map[string]xdm.Value
	slice []*xmldom.Node
	key   string
	now   time.Time
}

func (rt *replayRuntime) Message() (*xmldom.Node, error) { return rt.doc, nil }

func (rt *replayRuntime) Queue(name string) ([]*xmldom.Node, error) {
	if name == "" {
		name = rt.queue
	}
	if docs, ok := rt.queues[name]; ok {
		return docs, nil
	}
	docs, err := rt.ms.QueueDocs(name)
	if err == nil {
		rt.queues[name] = docs
	}
	return docs, err
}

func (rt *replayRuntime) Property(name string) (xdm.Value, error) {
	if v, ok := rt.props[name]; ok {
		return v, nil
	}
	return xdm.Value{}, fmt.Errorf("message has no property %q", name)
}

func (rt *replayRuntime) Slice() ([]*xmldom.Node, error) { return rt.slice, nil }
func (rt *replayRuntime) SliceKey() (xdm.Value, error)   { return xdm.NewString(rt.key), nil }
func (rt *replayRuntime) Collection(n string) ([]*xmldom.Node, error) {
	return rt.ms.Collection(n), nil
}
func (rt *replayRuntime) Now() time.Time { return rt.now }

// evalJob is one (rule, message) evaluation of the replay batch with its
// inputs already fetched.
type evalJob struct {
	rule  *rule.Rule
	queue string
	doc   *xmldom.Node
	props map[string]xdm.Value
	slice []*xmldom.Node
	key   string
}

// fastest runs f replayPasses times and returns the shortest duration, or
// the first error.
func fastest(f func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < replayPasses; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// replayLayers pushes a fixed batch of inputs through the idle node and
// then times the xmldom, rule and slicing layers alone on exactly the
// inputs and messages of that batch.
func (r *run) replayLayers(m map[string]float64, a, b snapshot) error {
	e := r.node.engine()
	ms := e.MessageStore()
	before := msgstore.MsgID(0)
	for _, q := range ms.QueueNames() {
		msgs, err := ms.Messages(q)
		if err != nil {
			return err
		}
		if len(msgs) > 0 {
			before = max(before, msgs[len(msgs)-1].ID)
		}
	}
	lo := int(r.nextID.Load())
	r.gcOff.Store(true) // a retention pass would remove what is replayed below
	if err := r.drive(replayInputs, nil); err != nil {
		return fmt.Errorf("replay batch: %w", err)
	}
	if !e.Drain(drainTimeout) {
		return fmt.Errorf("replay batch: node did not drain")
	}
	perInput := func(d time.Duration) float64 { return float64(d) / 1e3 / replayInputs }

	// xmldom, ingest side: the streaming encoder on the batch's wire
	// payloads, under the projection of the queue they enter.
	wires := make([][]byte, replayInputs)
	for i := range wires {
		p, _ := r.w.input(r, inputRNG(r.seed, lo+i), lo+i)
		wires[i] = []byte(p)
	}
	proj := e.Projection(r.w.inQueue)
	d, err := fastest(func() error {
		for _, w := range wires {
			if _, err := xmldom.StreamEncode(nil, w, proj); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay stream encode: %w", err)
	}
	m["xmldom.stream_encode_us_per_input"] = perInput(d)

	// The messages the batch created, and for each the rules the engine
	// would select with the slice each of them saw.
	prog := e.Program()
	outgoing := map[string]bool{}
	for _, q := range prog.App.Queues {
		if q.Kind == qdl.KindOutgoingGateway {
			outgoing[q.Name] = true
		}
	}
	rt := &replayRuntime{ms: ms, queues: map[string][]*xmldom.Node{}, now: time.Now().UTC()}
	var (
		jobs     []evalJob
		outDocs  []*xmldom.Node
		read     = map[msgstore.MsgID]*xmldom.Node{} // documents the rules read
		sliceKey [][2]string
	)
	for _, q := range ms.QueueNames() {
		msgs, err := ms.Messages(q)
		if err != nil {
			return err
		}
		for _, msg := range msgs {
			if msg.ID <= before {
				continue
			}
			doc, err := ms.Doc(msg.ID)
			if err != nil {
				return err
			}
			if outgoing[q] {
				outDocs = append(outDocs, doc)
				continue
			}
			read[msg.ID] = doc
			names := func() map[string]bool { return rule.ElementNames(doc) }
			if plan := prog.QueuePlans[q]; plan != nil {
				for _, ru := range plan.Select(msg.Props, names) {
					jobs = append(jobs, evalJob{rule: ru, queue: q, doc: doc, props: msg.Props})
				}
			}
			for slicing, prop := range prog.SlicingProps {
				v, has := msg.Props[prop]
				def, ok := prog.Properties.Def(prop)
				if !has || !ok || def.PerQueue[q] == nil {
					continue
				}
				key := v.StringValue()
				sliceKey = append(sliceKey, [2]string{slicing, key})
				plan := prog.SlicePlans[slicing]
				if plan == nil || len(plan.Rules) == 0 {
					continue
				}
				// The slice as this message saw it: every live message with
				// the key up to and including itself. The slice may have been
				// reset since, so it is read through the property index and
				// not through the slicing manager's current lifetime.
				var members []*xmldom.Node
				for _, id := range ms.PropertyIDsRange(prop, key, 0, msg.ID, nil) {
					d, err := ms.Doc(id)
					if err != nil {
						return err
					}
					members = append(members, d)
					read[id] = d
				}
				for _, ru := range plan.Select(msg.Props, names) {
					jobs = append(jobs, evalJob{rule: ru, queue: q, doc: doc, props: msg.Props, slice: members, key: key})
				}
			}
		}
	}
	// The first pass fills the runtime's queue cache and is never the fastest.
	if d, err = fastest(func() error {
		for _, j := range jobs {
			rt.queue, rt.doc, rt.props, rt.slice, rt.key = j.queue, j.doc, j.props, j.slice, j.key
			if _, _, err := xquery.Eval(j.rule.Body, rt, xquery.EvalOptions{ContextDoc: j.doc}); err != nil {
				return fmt.Errorf("replay rule %s: %w", j.rule.Name, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["rule.eval_us_per_input"] = perInput(d)
	if d, err = fastest(func() error {
		_, err := rule.Compile(prog.App, rule.DefaultOptions())
		return err
	}); err != nil {
		return fmt.Errorf("replay compile: %w", err)
	}
	m["rule.compile_ms"] = float64(d) / 1e6

	// xmldom, read side: a doc-cache miss costs one decode, so the decode
	// time per input is the window's misses per input times the mean decode
	// time of the documents the batch's rules read.
	encoded := make([][]byte, 0, len(read))
	for _, d := range read {
		encoded = append(encoded, xmldom.Encode(d))
	}
	decode, err := fastest(func() error {
		for _, enc := range encoded {
			if _, err := xmldom.DecodeOwned(enc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	if inputs := float64(b.delivered - a.delivered); inputs > 0 && len(encoded) > 0 {
		missesPerInput := float64(b.ms.DocCacheMisses-a.ms.DocCacheMisses) / inputs
		m["xmldom.decode_us_per_input"] = missesPerInput * float64(decode) / 1e3 / float64(len(encoded))
	}
	// xmldom, send side: the outgoing gateway serialises each result.
	d, _ = fastest(func() error { // cannot fail
		var buf []byte
		for _, doc := range outDocs {
			buf = xmldom.AppendSerialize(buf[:0], doc)
		}
		return nil
	})
	m["xmldom.serialize_us_per_input"] = perInput(d)

	// slicing: one member probe per slice the batch's messages joined.
	probes := make([]float64, 0, len(sliceKey))
	for _, sk := range sliceKey {
		t0 := time.Now()
		e.Slices().SliceMembers(sk[0], sk[1])
		probes = append(probes, float64(time.Since(t0))/1e3)
	}
	sort.Float64s(probes)
	m["slicing.members_probe_us_p50"] = percentile(probes, 50)
	return nil
}

// openLayers times the two storage layers' Open alone on the directory the
// node has just closed; the fastest of replayPasses counts.
func openLayers(m map[string]float64, dir string, dev *device) error {
	opts := store.DefaultOptions()
	opts.VFS = dev
	dev.spin.Store(true)
	defer dev.spin.Store(false)
	timeOpen := func(open func() (interface{ Close() error }, error)) (float64, error) {
		best := time.Duration(0)
		for i := 0; i < replayPasses; i++ {
			t0 := time.Now()
			c, err := open()
			d := time.Since(t0)
			if err != nil {
				return 0, err
			}
			if err := c.Close(); err != nil {
				return 0, err
			}
			if i == 0 || d < best {
				best = d
			}
		}
		return best.Seconds(), nil
	}
	var err error
	if m["store.open_s"], err = timeOpen(func() (interface{ Close() error }, error) {
		return store.Open(dir, opts)
	}); err != nil {
		return fmt.Errorf("store.Open alone: %w", err)
	}
	if m["msgstore.open_s"], err = timeOpen(func() (interface{ Close() error }, error) {
		return msgstore.Open(dir, msgstore.Options{Store: opts})
	}); err != nil {
		return fmt.Errorf("msgstore.Open alone: %w", err)
	}
	return nil
}
