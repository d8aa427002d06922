package msgstore

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// Txn is a message-store transaction. Mutations are buffered and applied
// atomically at Precommit, which runs a three-phase pipeline:
//
//  1. prepare — resolve target queues and messages (short read locks only),
//     assign the new messages' IDs and decide whether a page-store
//     transaction is needed;
//  2. persist — run the page-store transaction with NO msgstore lock held
//     and pre-commit it: the commit record is in the log, not yet flushed;
//  3. publish — apply the in-memory indexes under the per-shard and
//     per-queue locks; queue message lists stay in ID order even when
//     commits complete out of ID order, and each queue's publication
//     frontier (UnprocessedAfter) stays below the IDs still on their way.
//
// Store.WaitDurable on the LSN Precommit returned is the fourth step, and
// Commit is the two in a row. A caller that holds logical locks releases
// them between the two (early lock release): whoever reads the published
// state commits behind it in the one log, so a crash loses a suffix of the
// pre-committed history and never a transaction something durable depends
// on. Only what leaves the node has to wait for the flush.
//
// This mirrors the paper's execution model, where rule evaluation produces
// a pending action list that is applied as a unit (Sec. 3.1), while the
// fine-grained locking of Sec. 4.3 keeps independent transactions from
// serializing on the store. Isolation between concurrent transactions is
// the job of the logical lock manager above (internal/txn).
//
// A transaction stages any number of enqueues (Enqueue) and processed
// flags (MarkProcessed / MarkProcessedAll): the engine's set-oriented
// batch executor commits a whole batch of messages through one Txn, which
// then costs one page-store transaction (one WAL commit cohort) and one
// publish round that takes each ID shard and each queue lock once.
type Txn struct {
	ms   *Store
	done bool

	enqueues  []*pendingEnqueue
	processed []MsgID
	resets    []ResetEvent
	sessions  []SessionState

	// AppliedResets holds the reset events with their watermarks as
	// committed; the engine feeds them to the slicing manager.
	AppliedResets []ResetEvent
}

type pendingEnqueue struct {
	queue string
	doc   *xmldom.Node
	props map[string]xdm.Value
	at    time.Time

	// Streaming ingest (EnqueueEncoded): the payload already rendered in
	// the binary encoding; doc is then the decoded tree for the doc cache
	// (partial when fp != 0).
	enc    []byte
	fp     uint64
	pruned []string

	// Filled during Commit.
	id        MsgID     // prepare
	q         *Queue    // prepare
	rid       store.RID // persist (persistent queues)
	statusRID store.RID // persist: status side-heap record
}

// Begin starts a transaction.
func (ms *Store) Begin() *Txn { return &Txn{ms: ms} }

// Enqueue stages a message for insertion. The document must be a sealed
// document node. The message gets its ID at Precommit — under whatever
// logical locks the caller holds by then, so that a reset of a slice the
// message joins is ordered either wholly before it or wholly after it — and
// Precommit's result lists the IDs in staging order.
func (t *Txn) Enqueue(queue string, doc *xmldom.Node, props map[string]xdm.Value, at time.Time) error {
	if t.done {
		return fmt.Errorf("msgstore: transaction finished")
	}
	if t.ms.getQueue(queue) == nil {
		return fmt.Errorf("msgstore: unknown queue %q", queue)
	}
	if doc.Kind != xmldom.DocumentNode {
		doc = doc.CloneAsDocument()
	}
	t.enqueues = append(t.enqueues, &pendingEnqueue{queue: queue, doc: doc, props: props, at: at.UTC()})
	return nil
}

// EnqueueEncoded stages a message whose payload was already rendered into
// the binary document encoding by the streaming ingest path — the record is
// written from enc directly, with no tree serialization. doc is the decoded
// view of enc used to seed the doc cache: the complete tree when fp is 0,
// or the partial (projected) tree decoded under the projection fingerprint
// fp, with pruned naming the element local names inside its spans. enc and
// doc are retained past Commit (the cache aliases enc via the decoded
// strings); the caller must not reuse the buffer.
//
// Projected payloads require a persistent queue (a transient message is
// held only as its cached tree, which must be complete).
func (t *Txn) EnqueueEncoded(queue string, enc []byte, doc *xmldom.Node, fp uint64, pruned []string, props map[string]xdm.Value, at time.Time) error {
	if t.done {
		return fmt.Errorf("msgstore: transaction finished")
	}
	q := t.ms.getQueue(queue)
	if q == nil {
		return fmt.Errorf("msgstore: unknown queue %q", queue)
	}
	if fp != 0 && q.Mode != Persistent {
		return fmt.Errorf("msgstore: projected payload for transient queue %q", queue)
	}
	t.enqueues = append(t.enqueues, &pendingEnqueue{
		queue: queue, doc: doc, props: props, at: at.UTC(),
		enc: enc, fp: fp, pruned: pruned,
	})
	return nil
}

// MarkProcessed stages setting the processed flag of a message.
func (t *Txn) MarkProcessed(id MsgID) error {
	if t.done {
		return fmt.Errorf("msgstore: transaction finished")
	}
	t.processed = append(t.processed, id)
	return nil
}

// MarkProcessedAll stages the processed flags of a whole batch of messages
// in one call; together with multi-message Enqueue staging it lets a batch
// commit flow through a single prepare/persist/publish cycle.
func (t *Txn) MarkProcessedAll(ids []MsgID) error {
	if t.done {
		return fmt.Errorf("msgstore: transaction finished")
	}
	t.processed = append(t.processed, ids...)
	return nil
}

// Commit applies the staged mutations atomically and durably.
func (t *Txn) Commit() ([]Message, error) {
	out, lsn, err := t.Precommit()
	if err != nil {
		return nil, err
	}
	if err := t.ms.WaitDurable(lsn); err != nil {
		return nil, err
	}
	return out, nil
}

// WaitDurable returns once every transaction pre-committed at or below lsn
// survives a crash; see store.Store.WaitDurable.
func (ms *Store) WaitDurable(lsn uint64) error { return ms.ps.WaitDurable(lsn) }

// FollowDurable waits like WaitDurable, riding another caller's flush where
// one starts within a short hold; it reports whether it had to flush the log
// itself. See store.Store.FollowDurable.
func (ms *Store) FollowDurable(lsn uint64) (bool, error) { return ms.ps.FollowDurable(lsn) }

// LogEnd returns the LSN covering everything pre-committed so far — the one
// to wait for before acting on state read without a transaction of one's
// own in the log; see store.Store.LogEnd.
func (ms *Store) LogEnd() uint64 { return ms.ps.LogEnd() }

// Durable returns the highest LSN that is durable now, without waiting; see
// store.Store.Durable.
func (ms *Store) Durable() uint64 { return ms.ps.Durable() }

// Precommit applies the staged mutations atomically — persisted, the commit
// record logged, the in-memory indexes published — and returns the enqueued
// messages in staging order, with the IDs assigned here, and the LSN to hand
// to WaitDurable (0 when nothing persistent was touched). From here on the
// transaction can only be lost by a crash or a dead log device.
func (t *Txn) Precommit() ([]Message, uint64, error) {
	if t.done {
		return nil, 0, fmt.Errorf("msgstore: transaction finished")
	}
	t.done = true
	ms := t.ms

	// --- prepare: resolve targets and assign IDs, no page-store work yet ---
	needDisk := len(t.resets) > 0 || len(t.sessions) > 0
	for _, pe := range t.enqueues {
		pe.q = ms.getQueue(pe.queue)
		if pe.q == nil {
			return nil, 0, fmt.Errorf("msgstore: unknown queue %q", pe.queue)
		}
		if pe.q.Mode == Persistent {
			needDisk = true
		}
	}
	if len(t.enqueues) > 0 {
		ms.assignIDs(t.enqueues)
		defer ms.releaseFrontiers(t.enqueues)
	}
	toProcess := make([]*msgMeta, 0, len(t.processed))
	for _, id := range t.processed {
		m := ms.lookup(id)
		if m == nil {
			continue // vanished (GC'd) or never existed; matches enqueue-order apply
		}
		toProcess = append(toProcess, m)
		if m.q.Mode == Persistent {
			needDisk = true
		}
	}

	// --- persist: one page-store transaction, no msgstore lock held ---
	var lsn uint64
	if needDisk {
		pt := ms.ps.Begin()
		bufp := recBufPool.Get().(*[]byte)
		for _, pe := range t.enqueues {
			if pe.q.Mode != Persistent {
				continue
			}
			// The single-parse ingest contract: the sealed tree handed to
			// Enqueue is rendered straight into the record buffer, with no
			// intermediate string. Streaming enqueues skip even that: the
			// pre-encoded payload bytes are spliced into the record as-is.
			rec := ms.appendMessageRecord((*bufp)[:0], pe)
			*bufp = rec
			rid, err := pt.Insert(pe.q.heap, rec)
			if err != nil {
				pt.Abort()
				recBufPool.Put(bufp)
				return nil, 0, err
			}
			pe.rid = rid
			// The status side-heap record rides in the same page-store
			// transaction, so a message and its status slot are atomic:
			// recovery sees both or neither.
			var srec [statusRecSize]byte
			srid, err := pt.Insert(pe.q.statusHeap, appendStatusRecord(srec[:0], pe.id, statusByte(false)))
			if err != nil {
				pt.Abort()
				recBufPool.Put(bufp)
				return nil, 0, err
			}
			pe.statusRID = srid
		}
		recBufPool.Put(bufp)
		for _, m := range toProcess {
			// Skip messages the GC removed since prepare. (In practice GC
			// only touches already-processed messages, which no worker
			// marks again, but the re-check keeps the pipeline safe on its
			// own terms.)
			if m.q.Mode != Persistent || m.dead.Load() {
				continue
			}
			// Both concurrent markers write the same byte, so the write
			// stays idempotent.
			if err := pt.SetByte(m.statusRID, 8, statusByte(true)); err != nil {
				pt.Abort()
				return nil, 0, err
			}
		}
		// Persist slice resets with the current ID high-water mark (every
		// message that exists now is dismissed from the slice).
		for _, re := range t.resets {
			re.Watermark = MsgID(ms.nextID.Load() - 1)
			var err error
			if re.RID, err = pt.Insert(ms.resetsHeap, encodeReset(re)); err != nil {
				pt.Abort()
				return nil, 0, err
			}
			t.AppliedResets = append(t.AppliedResets, re)
		}
		// Session snapshots ride the same page-store transaction as the
		// enqueue they guard: the retransmit-suppression state and the
		// message become durable together, or neither does.
		sessVers := make([]uint64, len(t.sessions))
		sessRids := make([]store.RID, len(t.sessions))
		for i, s := range t.sessions {
			sessVers[i] = ms.sessVer.Add(1)
			rid, err := pt.Insert(ms.sessionsHeap, encodeSession(sessVers[i], s))
			if err != nil {
				pt.Abort()
				return nil, 0, err
			}
			sessRids[i] = rid
		}
		var err error
		if lsn, err = pt.Precommit(); err != nil {
			return nil, 0, err
		}
		for i, s := range t.sessions {
			ms.publishSession(s, sessVers[i], sessRids[i])
		}
	}

	// --- publish: in-memory indexes under short striped locks; a batch
	// takes each shard and queue lock once, not once per message ---
	var out []Message
	if n := len(t.enqueues); n > 0 {
		// Message.Release: read here, after whatever the transaction consumed
		// was published, the log end covers the commits that published it.
		release := lsn
		if release == 0 {
			release = ms.LogEnd()
		}
		metas := make([]*msgMeta, n)
		for i, pe := range t.enqueues {
			q := pe.q
			m := &msgMeta{id: pe.id, props: pe.props, enqueued: pe.at, release: release, q: q}
			if q.Mode == Persistent {
				m.rid = pe.rid
				m.statusRID = pe.statusRID
				if pe.fp != 0 {
					ms.cache.putProjected(pe.id, pe.doc, pe.fp, pe.pruned)
				} else {
					ms.cache.put(pe.id, pe.doc)
				}
			} else {
				m.doc = pe.doc
			}
			metas[i] = m
		}
		ms.publishByID(metas)
		ms.publishToQueues(metas)
		// Index the batch after the queue publish, with no shard or queue
		// lock held: probe reads nest btree latch → shard lock, never the
		// reverse. A probe racing this window sees the message via the queue
		// list before its postings land, which only makes the index miss it —
		// the scan-side fallbacks (propMatch, queue scan) stay authoritative
		// for admission, so a late posting is never a correctness hole.
		for _, m := range metas {
			ms.indexMessage(m)
		}
		out = make([]Message, n)
		for i, m := range metas {
			out[i] = Message{ID: m.id, Queue: m.q.Name, Props: m.props, Enqueued: m.enqueued, Release: m.release}
		}
	}
	for _, m := range toProcess {
		m.processed.Store(true)
	}
	return out, lsn, nil
}

// publishByID inserts a commit's messages into the sharded point index.
// This runs before the queue lists are touched: scans discover messages
// through the queue list, so a message must be resolvable by ID before it
// appears there.
func (ms *Store) publishByID(metas []*msgMeta) {
	if len(metas) == 1 {
		m := metas[0]
		sh := ms.shard(m.id)
		sh.mu.Lock()
		sh.byID[m.id] = m
		sh.mu.Unlock()
		return
	}
	var byShard [idShardCount][]*msgMeta
	for _, m := range metas {
		idx := uint64(m.id) % idShardCount
		byShard[idx] = append(byShard[idx], m)
	}
	for i := range byShard {
		if len(byShard[i]) == 0 {
			continue
		}
		sh := &ms.shards[i]
		sh.mu.Lock()
		for _, m := range byShard[i] {
			sh.byID[m.id] = m
		}
		sh.mu.Unlock()
	}
}

// publishToQueues inserts a commit's messages into their queues' ordered
// lists, grouped so each distinct queue lock is taken once. metas are in
// staging order — ascending IDs — so per-queue sub-batches
// stay sorted and usually hit insertSorted's append fast path.
func (ms *Store) publishToQueues(metas []*msgMeta) {
	if len(metas) == 1 {
		m := metas[0]
		m.q.mu.Lock()
		m.q.insertSorted(m)
		m.q.live++
		m.q.mu.Unlock()
		return
	}
	type qGroup struct {
		q  *Queue
		ms []*msgMeta
	}
	var groups []qGroup
	for _, m := range metas {
		found := false
		for gi := range groups {
			if groups[gi].q == m.q {
				groups[gi].ms = append(groups[gi].ms, m)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, qGroup{q: m.q, ms: []*msgMeta{m}})
		}
	}
	for _, g := range groups {
		g.q.mu.Lock()
		for _, m := range g.ms {
			g.q.insertSorted(m)
		}
		g.q.live += len(g.ms)
		g.q.mu.Unlock()
	}
}

// insertSorted inserts m into the queue's message list keeping ID order.
// Commits usually complete in roughly ID order, so the append fast path
// dominates. Caller holds q.mu.
func (q *Queue) insertSorted(m *msgMeta) {
	n := len(q.msgs)
	if n == 0 || q.msgs[n-1].id < m.id {
		q.msgs = append(q.msgs, m)
		return
	}
	i := sort.Search(n, func(i int) bool { return q.msgs[i].id > m.id })
	q.msgs = append(q.msgs, nil)
	copy(q.msgs[i+1:], q.msgs[i:])
	q.msgs[i] = m
}

// assignIDs gives a transaction's messages their ids and claims, for each
// queue they go to, the frontier at the lowest of them: no reader of that
// queue gets past it until releaseFrontiers, once the messages are published
// (or the transaction has failed). Ids and claims are made in one step, so
// the ids handed out under pubMu ascend and every inflight list stays
// sorted; an entry at or above next is this transaction's own.
func (ms *Store) assignIDs(pes []*pendingEnqueue) {
	ms.pubMu.Lock()
	defer ms.pubMu.Unlock()
	next := MsgID(ms.nextID.Add(uint64(len(pes))) - uint64(len(pes)))
	for i, pe := range pes {
		pe.id = next + MsgID(i)
		if f := pe.q.inflight; len(f) == 0 || f[len(f)-1] < next {
			pe.q.inflight = append(f, pe.id)
		}
	}
}

// releaseFrontiers drops the frontier claims of assignIDs.
func (ms *Store) releaseFrontiers(pes []*pendingEnqueue) {
	ms.pubMu.Lock()
	defer ms.pubMu.Unlock()
	for _, pe := range pes {
		if i, ok := slices.BinarySearch(pe.q.inflight, pe.id); ok {
			pe.q.inflight = slices.Delete(pe.q.inflight, i, i+1)
		}
	}
}

// Abort discards the staged mutations.
func (t *Txn) Abort() {
	t.done = true
	t.enqueues = nil
	t.processed = nil
	t.resets = nil
	t.sessions = nil
}

// --- read side ---

// Doc returns the parsed document of a message.
func (ms *Store) Doc(id MsgID) (*xmldom.Node, error) {
	m := ms.lookup(id)
	if m == nil {
		return nil, fmt.Errorf("msgstore: message %d not found", id)
	}
	if m.doc != nil {
		return m.doc, nil
	}
	if doc, ok := ms.cache.get(id); ok {
		return doc, nil
	}
	data, err := ms.ps.Read(m.rid)
	if err != nil {
		return nil, err
	}
	// Rehydration is a structural decode (one arena, no character-level
	// parse). The record buffer from Read is freshly allocated and never
	// touched again, so the decoded tree may alias it (DecodeOwned) instead
	// of copying the payload once more.
	po := payloadOffset(data)
	if po < 0 {
		return nil, fmt.Errorf("msgstore: message %d record corrupt", id)
	}
	doc, err := xmldom.DecodeOwned(data[po:])
	if err != nil {
		return nil, fmt.Errorf("msgstore: message %d payload: %w", id, err)
	}
	ms.cache.put(id, doc)
	return doc, nil
}

// DocProjected returns a document usable for evaluation under the queue's
// current projection, identified by its fingerprint fp. If the stored
// record was encoded under the same projection, the cheaper partial tree is
// returned (spans skipped) together with the local names of the elements
// pruned into spans — the caller merges those into its element-name
// dispatch index. In every other case (full record, fingerprint mismatch
// after a rule change, fp == 0 meaning "no projection") the complete
// document is materialized exactly like Doc.
func (ms *Store) DocProjected(id MsgID, fp uint64) (*xmldom.Node, []string, error) {
	if fp == 0 {
		doc, err := ms.Doc(id)
		return doc, nil, err
	}
	m := ms.lookup(id)
	if m == nil {
		return nil, nil, fmt.Errorf("msgstore: message %d not found", id)
	}
	if m.doc != nil {
		return m.doc, nil, nil // transient: always a complete tree
	}
	if doc, pruned, ok := ms.cache.getProjected(id, fp); ok {
		return doc, pruned, nil
	}
	data, err := ms.ps.Read(m.rid)
	if err != nil {
		return nil, nil, err
	}
	po := payloadOffset(data)
	if po < 0 {
		return nil, nil, fmt.Errorf("msgstore: message %d record corrupt", id)
	}
	payload := data[po:]
	if rfp, ok := xmldom.ProjectedFingerprint(payload); ok && rfp == fp {
		doc, _, pruned, err := xmldom.DecodeProjectedOwned(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("msgstore: message %d payload: %w", id, err)
		}
		ms.cache.putProjected(id, doc, fp, pruned)
		return doc, pruned, nil
	}
	// Stored under a different (or no) projection: materialize fully. The
	// decode expands any spans transparently.
	doc, err := xmldom.DecodeOwned(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("msgstore: message %d payload: %w", id, err)
	}
	ms.cache.put(id, doc)
	return doc, nil, nil
}

// Get returns the message descriptor.
func (ms *Store) Get(id MsgID) (Message, bool) {
	m := ms.lookup(id)
	if m == nil {
		return Message{}, false
	}
	return Message{ID: m.id, Queue: m.q.Name, Props: m.propsMap(), Enqueued: m.enqueued, Processed: m.processed.Load(), Release: m.release}, true
}

// QueueOf returns the queue of a live message. Unlike Get it builds no
// property map, which a message loaded at Open decodes on first use.
func (ms *Store) QueueOf(id MsgID) (string, bool) {
	m := ms.lookup(id)
	if m == nil {
		return "", false
	}
	return m.q.Name, true
}

// Property returns one property value of a message.
func (ms *Store) Property(id MsgID, name string) (xdm.Value, bool) {
	m := ms.lookup(id)
	if m == nil {
		return xdm.Value{}, false
	}
	v, ok := m.propsMap()[name]
	return v, ok
}

// Messages returns the live messages of a queue in enqueue order.
func (ms *Store) Messages(queue string) ([]Message, error) {
	q := ms.getQueue(queue)
	if q == nil {
		return nil, fmt.Errorf("msgstore: unknown queue %q", queue)
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	out := make([]Message, 0, q.live)
	for _, m := range q.msgs {
		if m.dead.Load() {
			continue
		}
		out = append(out, Message{ID: m.id, Queue: q.Name, Props: m.propsMap(), Enqueued: m.enqueued, Processed: m.processed.Load(), Release: m.release})
	}
	return out, nil
}

// QueueDocs returns the documents of all live messages in a queue, the
// implementation behind qs:queue() (Sec. 3.4).
func (ms *Store) QueueDocs(queue string) ([]*xmldom.Node, error) {
	msgs, err := ms.Messages(queue)
	if err != nil {
		return nil, err
	}
	docs := make([]*xmldom.Node, 0, len(msgs))
	for _, m := range msgs {
		d, err := ms.Doc(m.ID)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// QueueDocsAmong returns the documents of the live messages of a queue that
// ids names, together with all those with an id below floor, in id order —
// the order of QueueDocs. ids may be unsorted and may repeat or name
// messages of other queues; it is sorted in place. Index-probed qs:queue()
// reads use it: ids are the probe's postings, and floor keeps every message
// whose properties the running application did not compute.
func (ms *Store) QueueDocsAmong(queue string, ids []MsgID, floor MsgID) ([]*xmldom.Node, error) {
	q := ms.getQueue(queue)
	if q == nil {
		return nil, fmt.Errorf("msgstore: unknown queue %q", queue)
	}
	var pick []MsgID
	q.mu.RLock()
	below := sort.Search(len(q.msgs), func(i int) bool { return q.msgs[i].id >= floor })
	for _, m := range q.msgs[:below] {
		if !m.dead.Load() {
			pick = append(pick, m.id)
		}
	}
	q.mu.RUnlock()
	slices.Sort(ids)
	for i, id := range ids {
		if id < floor || (i > 0 && id == ids[i-1]) {
			continue
		}
		if m := ms.lookup(id); m != nil && m.q == q {
			pick = append(pick, id)
		}
	}
	docs := make([]*xmldom.Node, 0, len(pick))
	for _, id := range pick {
		d, err := ms.Doc(id)
		if err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// NextID returns the id the next enqueued message will get: every message
// in the store has a lower one.
func (ms *Store) NextID() MsgID { return MsgID(ms.nextID.Load()) }

// UnprocessedAfter appends to dst, in id order, up to limit live unprocessed
// messages of queue with ids above after. Ids are assigned before commit and
// published after it, so two committers may publish out of id order; the
// read stops at the queue's publication frontier, and a reader that moves a
// cursor along its results never passes a message published later. The
// start is found by binary search: the cost does not grow with the
// processed history below after.
func (ms *Store) UnprocessedAfter(queue string, after MsgID, limit int, dst []Message) []Message {
	q := ms.getQueue(queue)
	if q == nil {
		return dst
	}
	// Every id below the frontier is published or never will be.
	ms.pubMu.Lock()
	frontier := MsgID(ms.nextID.Load())
	if len(q.inflight) > 0 {
		frontier = q.inflight[0]
	}
	ms.pubMu.Unlock()
	q.mu.RLock()
	defer q.mu.RUnlock()
	i := sort.Search(len(q.msgs), func(i int) bool { return q.msgs[i].id > after })
	for n := 0; i < len(q.msgs) && q.msgs[i].id < frontier && n < limit; i++ {
		m := q.msgs[i]
		if m.dead.Load() || m.processed.Load() {
			continue
		}
		dst = append(dst, Message{ID: m.id, Queue: q.Name, Props: m.propsMap(), Enqueued: m.enqueued, Release: m.release})
		n++
	}
	return dst
}

// --- collections (master data, fn:collection) ---

// CreateCollection declares a master-data collection.
func (ms *Store) CreateCollection(name string) error {
	_, err := ms.getOrCreateCollection(name)
	return err
}

func (ms *Store) getOrCreateCollection(name string) (*collection, error) {
	ms.cmu.RLock()
	c := ms.colls[name]
	ms.cmu.RUnlock()
	if c != nil {
		return c, nil
	}
	ms.cmu.Lock()
	defer ms.cmu.Unlock()
	if c := ms.colls[name]; c != nil {
		return c, nil
	}
	h, err := ms.ps.CreateHeap("c:" + name)
	if err != nil {
		return nil, err
	}
	c = &collection{name: name, heap: h}
	ms.colls[name] = c
	return c, nil
}

// AddToCollection durably appends a document to a collection. Different
// collections append concurrently; the page-store commit participates in
// group commit like any other transaction.
func (ms *Store) AddToCollection(name string, doc *xmldom.Node) error {
	c, err := ms.getOrCreateCollection(name)
	if err != nil {
		return err
	}
	if doc.Kind != xmldom.DocumentNode {
		doc = doc.CloneAsDocument()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := ms.ps.Begin()
	bufp := recBufPool.Get().(*[]byte)
	rec := xmldom.EncodeAppend((*bufp)[:0], doc)
	ms.payloadEncBytes.Add(uint64(len(rec)))
	*bufp = rec
	_, err = pt.Insert(c.heap, rec)
	recBufPool.Put(bufp)
	if err != nil {
		pt.Abort()
		return err
	}
	if err := pt.Commit(); err != nil {
		return err
	}
	c.docs = append(c.docs, doc)
	return nil
}

// Collection returns the documents of a collection (empty if undeclared,
// matching fn:collection's behavior for unknown sources in Demaq).
func (ms *Store) Collection(name string) []*xmldom.Node {
	ms.cmu.RLock()
	c := ms.colls[name]
	ms.cmu.RUnlock()
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.docs
}
