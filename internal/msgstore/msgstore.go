// Package msgstore implements the Demaq message store: transactional XML
// message queues (persistent and transient), message properties, and
// master-data collections, layered over the page store (internal/store).
//
// The store follows the paper's append-only model (Sec. 2.3.3): message
// payloads are never modified after enqueue; the only in-place mutation is
// the processed flag, which lives in a status side-heap of its own, and
// physical removal is driven by the retention logic in internal/slicing via
// redo-only batch deletes.
//
// Concurrency: there is no store-wide mutex. State is striped so that
// independent transactions never contend (Sec. 4.3's fine-grained locking
// carried into the store itself):
//
//   - the queue registry has its own RWMutex (DDL is rare);
//   - each Queue guards its message list with a per-queue RWMutex;
//   - the byID index is sharded by message ID with per-shard RWMutexes;
//   - message IDs come from a counter advanced under pubMu, which also
//     guards each queue's publication frontier;
//   - collections have per-collection mutexes under a registry RWMutex;
//   - the processed/dead message flags are atomics.
//
// Lock discipline: no code path holds two of these locks at once (queue
// and shard locks are always taken one after the other), so there is no
// lock ordering to maintain and no deadlock potential. Txn.Commit runs the
// page-store transaction without any msgstore lock held, which lets
// concurrent committers overlap inside the WAL and coalesce their fsyncs
// (group commit).
package msgstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"demaq/internal/store"
	"demaq/internal/xdm"
	"demaq/internal/xmldom"
)

// MsgID identifies a message; IDs are assigned in enqueue order and define
// the temporal order the scheduler respects.
type MsgID uint64

// QueueMode distinguishes persistent from transient queues (Sec. 2.1.1).
type QueueMode uint8

// Queue modes.
const (
	Persistent QueueMode = iota
	Transient
)

// msgMeta is the in-memory descriptor of one message. Payloads of
// persistent messages stay on disk and are parsed on demand through the
// document cache; transient messages keep their document in memory.
// Properties are read through propsMap: a message a commit published holds
// its map in props, one loaded at Open holds its stored property section in
// rawProps, which the first read decodes into decoded.
// id, rid, doc, props, rawProps, enqueued, release and q are immutable once
// the message is published; processed, dead and decoded are the only
// mutable fields.
type msgMeta struct {
	id        MsgID
	rid       store.RID // persistent queues
	statusRID store.RID // persistent queues: the 9-byte status side-heap record
	doc       *xmldom.Node
	props     map[string]xdm.Value
	rawProps  []byte // loaded at Open: the record's property section, in a shared chunk
	decoded   atomic.Pointer[map[string]xdm.Value]
	enqueued  time.Time
	release   uint64 // Message.Release; 0 for a message loaded at Open
	q         *Queue
	processed atomic.Bool
	dead      atomic.Bool // physically removed
}

// propsMap returns the message's properties. A loaded message's map is
// built on the first call and published for every later one; first calls
// that race build it more than once and all return the one published.
func (m *msgMeta) propsMap() map[string]xdm.Value {
	if m.rawProps == nil {
		return m.props
	}
	if p := m.decoded.Load(); p != nil {
		return *p
	}
	props := decodeProps(m.rawProps)
	if m.decoded.CompareAndSwap(nil, &props) {
		return props
	}
	return *m.decoded.Load()
}

// Queue is one message queue.
type Queue struct {
	Name     string
	Mode     QueueMode
	Priority int

	heap store.HeapID // persistent queues

	// statusHeap holds one compact [msgID, status] record per persistent
	// message, so marking a batch processed dirties a handful of dense
	// status pages instead of every payload page the batch lives on —
	// payload records stay immutable after insert, which is the paper's
	// append-only store taken literally (Sec. 2.3.3).
	statusHeap store.HeapID

	mu   sync.RWMutex
	msgs []*msgMeta // in id order; GC'd entries flagged dead and compacted
	live int

	// inflight holds, in ascending order, the lowest id each pre-committing
	// transaction has handed to a message of this queue: its first entry is
	// the queue's publication frontier. Guarded by Store.pubMu.
	inflight []MsgID
}

// Message is the externally visible message descriptor.
type Message struct {
	ID        MsgID
	Queue     string
	Props     map[string]xdm.Value
	Enqueued  time.Time
	Processed bool
	// Release is the LSN that must be durable before the message may leave
	// the node: its transaction's commit LSN or, if that logged nothing
	// (transient queues only), the log end at publish, covering its inputs.
	Release uint64
}

// idShardCount stripes the byID index. Power of two so the shard selector
// compiles to a mask.
const idShardCount = 32

type idShard struct {
	mu   sync.RWMutex
	byID map[MsgID]*msgMeta
}

// Store is the message store.
type Store struct {
	ps    *store.Store
	cache *docCache

	// propIndex is the secondary index (property, value) → MsgID over the
	// string form of every non-system message property, nil when disabled
	// (Options.NoPropertyIndex). It is the one derived index — dispatch
	// probes and slice access (internal/slicing) are ranges of it:
	// maintained at commit publish time and on Remove, built bottom-up from
	// the keys Open's heap scan gathers, never logged. Keys use the
	// length-prefixed codec (store.IndexKey), so embedded separator bytes
	// cannot leak entries across (property, value) pairs, and the
	// big-endian id suffix keeps each pair's postings in ascending id order.
	propIndex *store.BTree

	payloadEncBytes atomic.Uint64

	// pubMu orders id assignment against the frontier reads (Queue.inflight):
	// a transaction takes its ids and claims its frontiers in one step.
	pubMu  sync.Mutex
	nextID atomic.Uint64 // next MsgID to assign; advanced under pubMu

	// The system heaps (resets.go, session.go), created by Open so that no
	// commit path ever pays for catalog DDL.
	resetsHeap   store.HeapID
	sessionsHeap store.HeapID

	qmu    sync.RWMutex // guards the queues map (not queue contents)
	queues map[string]*Queue

	shards [idShardCount]idShard

	cmu   sync.RWMutex // guards the colls map (not collection contents)
	colls map[string]*collection

	// Reliable-messaging session snapshots (session.go): newest committed
	// version per key, plus the on-disk record versions for compaction.
	// Stale versions are garbage-collected by a background goroutine so the
	// admit path never pays a delete commit (channel closed by Close).
	sessMu     sync.Mutex
	sessions   map[sessionKey]*sessionEntry
	sessVer    atomic.Uint64
	sessClosed bool
	sessGC     chan []store.RID
	sessGCDone chan struct{}
}

type collection struct {
	name string
	heap store.HeapID

	mu   sync.RWMutex
	docs []*xmldom.Node
}

func (ms *Store) shard(id MsgID) *idShard { return &ms.shards[uint64(id)%idShardCount] }

// lookup returns the live message meta for id, or nil.
func (ms *Store) lookup(id MsgID) *msgMeta {
	sh := ms.shard(id)
	sh.mu.RLock()
	m := sh.byID[id]
	sh.mu.RUnlock()
	if m == nil || m.dead.Load() {
		return nil
	}
	return m
}

// getQueue resolves a queue by name under the registry read lock.
func (ms *Store) getQueue(name string) *Queue {
	ms.qmu.RLock()
	q := ms.queues[name]
	ms.qmu.RUnlock()
	return q
}

// Options configure the message store.
type Options struct {
	Store     store.Options
	CacheDocs int // parsed-document cache capacity (0 = 4096)

	// NoPropertyIndex keeps no derived index: dispatch and slice access
	// then fall back to per-message property probes and whole-queue scans.
	// Test reference for TestIndexedScanDispatchDifferential and slicing's
	// differential, and experiment E1's baseline; not an operating mode.
	NoPropertyIndex bool
}

// DefaultOptions returns production settings.
func DefaultOptions() Options {
	return Options{Store: store.DefaultOptions()}
}

// Stats reports message-store counters: document-cache effectiveness and
// payload bytes written.
type Stats struct {
	DocCacheHits      uint64
	DocCacheMisses    uint64
	DocCacheEvictions uint64
	DocCacheSize      int
	DocCacheCap       int

	// PayloadEncodedBytes accumulates the payload sizes written (messages
	// and collection documents, all in the binary tree encoding).
	PayloadEncodedBytes uint64
	// PayloadTextBytes is always 0: text payloads are no longer written. It
	// stays only because the benchmark (bench/layers.go) still reads it.
	PayloadTextBytes uint64
}

// Stats returns a snapshot of the store counters.
func (ms *Store) Stats() Stats {
	st := ms.cache.stats()
	st.PayloadEncodedBytes = ms.payloadEncBytes.Load()
	return st
}

// Open opens the message store in dir, recovering state from disk:
// persistent queues and their messages (including processed flags) are
// rebuilt by one store.Scan of each heap, which reads every chain page
// once, outside the buffer pool's frames, exactly as the paper's recovery
// story requires — scheduler and slice state are derived data, and so is
// the property index. The scan checks every record as decodeMessage does
// but decodes no property map: each loaded message keeps its property
// section for propsMap to decode on first use, and the scan gathers the
// index keys, which are sorted once and built into the index bottom-up.
func Open(dir string, opts Options) (*Store, error) {
	if opts.CacheDocs == 0 {
		opts.CacheDocs = 4096
	}
	ps, err := store.Open(dir, opts.Store)
	if err != nil {
		return nil, err
	}
	ms := &Store{
		ps:       ps,
		queues:   map[string]*Queue{},
		colls:    map[string]*collection{},
		sessions: map[sessionKey]*sessionEntry{},
		cache:    newDocCache(opts.CacheDocs),
	}
	for i := range ms.shards {
		ms.shards[i].byID = map[MsgID]*msgMeta{}
	}
	ms.nextID.Store(1)
	l := &loader{index: !opts.NoPropertyIndex}
	for _, name := range ps.HeapNames() {
		switch {
		case len(name) > 2 && name[:2] == "q:":
			if err := ms.loadQueue(name[2:], l); err != nil {
				ps.Close()
				return nil, err
			}
		case len(name) > 2 && name[:2] == "c:":
			if err := ms.loadCollection(name[2:]); err != nil {
				ps.Close()
				return nil, err
			}
		}
	}
	if l.index {
		slices.SortFunc(l.keys, bytes.Compare)
		ms.propIndex = store.NewBTreeSorted(l.keys, nil)
	}
	if err := ms.openSystemHeaps(); err != nil {
		ps.Close()
		return nil, err
	}
	ms.sessGC = make(chan []store.RID, 256)
	ms.sessGCDone = make(chan struct{})
	go ms.sessionCompactor()
	return ms, nil
}

// openSystemHeaps creates or finds the reset and session heaps and loads
// what they hold. A reset watermark is a message id, and the ids of removed
// messages are not on disk any more: the ids assigned from here on start
// above every watermark on record, or a new member of a slice reset before
// the restart would be born dismissed.
func (ms *Store) openSystemHeaps() error {
	var err error
	if ms.resetsHeap, err = ms.ps.CreateHeap(resetsHeapName); err != nil {
		return err
	}
	if ms.sessionsHeap, err = ms.ps.CreateHeap(sessionsHeapName); err != nil {
		return err
	}
	resets, err := ms.ResetEvents()
	if err != nil {
		return err
	}
	for _, e := range resets {
		ms.assignAbove(e.Watermark)
	}
	return ms.loadSessions()
}

// assignAbove makes the message ids assigned from here on start above id.
// Open calls it single-threaded.
func (ms *Store) assignAbove(id MsgID) {
	if next := uint64(id) + 1; next > ms.nextID.Load() {
		ms.nextID.Store(next)
	}
}

// Close stops the session compactor and closes the underlying store.
func (ms *Store) Close() error {
	ms.sessMu.Lock()
	if !ms.sessClosed {
		ms.sessClosed = true
		close(ms.sessGC)
	}
	ms.sessMu.Unlock()
	<-ms.sessGCDone
	return ms.ps.Close()
}

// PageStore exposes the underlying page store (stats, checkpoints).
func (ms *Store) PageStore() *store.Store { return ms.ps }

// CreateQueue declares a queue. Declaring an existing queue updates its
// priority and verifies the mode matches.
func (ms *Store) CreateQueue(name string, mode QueueMode, priority int) (*Queue, error) {
	ms.qmu.Lock()
	defer ms.qmu.Unlock()
	if q, ok := ms.queues[name]; ok {
		if q.Mode != mode {
			return nil, fmt.Errorf("msgstore: queue %q exists with different mode", name)
		}
		q.Priority = priority
		return q, nil
	}
	q := &Queue{Name: name, Mode: mode, Priority: priority}
	if mode == Persistent {
		h, err := ms.ps.CreateHeap("q:" + name)
		if err != nil {
			return nil, err
		}
		q.heap = h
		sh, err := ms.ps.CreateHeap("s:" + name)
		if err != nil {
			return nil, err
		}
		q.statusHeap = sh
	}
	ms.queues[name] = q
	return q, nil
}

// Queue returns a queue by name.
func (ms *Store) Queue(name string) (*Queue, bool) {
	q := ms.getQueue(name)
	return q, q != nil
}

// QueueNames lists declared queues.
func (ms *Store) QueueNames() []string {
	ms.qmu.RLock()
	defer ms.qmu.RUnlock()
	out := make([]string, 0, len(ms.queues))
	for n := range ms.queues {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// loader is what Open gathers across the queues it loads: the property
// sections of the loaded messages, copied into shared chunks, and, when
// the store keeps a property index, its keys.
type loader struct {
	index bool
	chunk []byte   // free tail of the current chunk
	keys  [][]byte // index keys, in chunks too
	key   []byte   // the key being built
	props []rawProp
}

// rawProp is one property of the record being loaded, as stored.
type rawProp struct {
	name, val []byte
	typ       xdm.Type
}

// loaderChunk is the size of the chunks loaded property sections and index
// keys are copied into. A chunk lives as long as any message or posting in
// it does.
const loaderChunk = 64 << 10

// copyOf copies b into the current chunk and returns the copy, capped so
// that nothing appended to it reaches its neighbour.
func (l *loader) copyOf(b []byte) []byte {
	if cap(l.chunk) < len(b) {
		l.chunk = make([]byte, 0, max(loaderChunk, len(b)))
	}
	c := append(l.chunk, b...)
	l.chunk = c[len(b):]
	return c[:len(b):len(b)]
}

// load checks a payload record exactly as decodeMessage does and returns
// its message with the property section kept undecoded, gathering the
// message's index keys: each indexable property's value cast to its type,
// in its string form, as indexMessage would post it.
func (l *loader) load(rec []byte) (*msgMeta, error) {
	l.props = l.props[:0]
	sorted := true
	r, err := walkRecord(rec, func(name, val []byte, typ xdm.Type) {
		if n := len(l.props); n > 0 && bytes.Compare(l.props[n-1].name, name) >= 0 {
			sorted = false
		}
		l.props = append(l.props, rawProp{name: name, val: val, typ: typ})
	})
	if err != nil {
		return nil, err
	}
	m := &msgMeta{id: r.id, enqueued: r.enqueued}
	switch {
	case len(l.props) == 0:
	case !sorted:
		// appendMessageRecord writes names in ascending order; any other
		// order may repeat a name, whose last value wins in the map: decode
		// the map now and post what it holds.
		m.props = decodeProps(r.props)
		for k, v := range m.props {
			if l.index && indexableProp(k) {
				addKey(l, m.id, k, v.StringValue())
			}
		}
	default:
		m.rawProps = l.copyOf(r.props)
		for _, p := range l.props {
			if !l.index || !indexableProp(p.name) {
				continue
			}
			if p.typ == xdm.TypeString || p.typ == xdm.TypeUntyped {
				addKey(l, m.id, p.name, p.val) // the cast keeps the lexical form
			} else {
				addKey(l, m.id, p.name, castProp(string(p.val), p.typ).StringValue())
			}
		}
	}
	return m, nil
}

// addKey gathers the index key of one posting.
func addKey[N, V ~string | ~[]byte](l *loader, id MsgID, name N, val V) {
	l.key = store.AppendIndexKey(l.key[:0], name)
	l.key = store.AppendIndexKey(l.key, val)
	l.key = store.AppendIndexKeyID(l.key, uint64(id))
	l.keys = append(l.keys, l.copyOf(l.key))
}

// loadQueue rebuilds a persistent queue from its two heaps. A record that
// does not decode, a status record of the wrong size, a payload with no
// status record, or a message id already loaded fails the open: skipping
// one would lose a message, or its processed flag, without a word.
func (ms *Store) loadQueue(name string, l *loader) error {
	h, _ := ms.ps.Heap("q:" + name)
	q := &Queue{Name: name, Mode: Persistent, heap: h}
	// CreateQueue makes q: and s: in two catalog commits, so a crash between
	// them leaves a queue without its status heap — and without messages, as
	// none could be enqueued before CreateQueue returned.
	sh, ok := ms.ps.Heap("s:" + name)
	if !ok {
		var err error
		if sh, err = ms.ps.CreateHeap("s:" + name); err != nil {
			return err
		}
	}
	q.statusHeap = sh
	// Status records first, so the payload scan can join against them. Every
	// status id raises the next id, not only the live ones: an orphan left
	// by a crash inside Remove must never meet a new message with its id.
	type statusEntry struct {
		rid    store.RID
		status byte
	}
	statuses := make(map[MsgID]statusEntry)
	var loadErr error
	err := ms.ps.Scan(sh, func(rid store.RID, rec []byte) bool {
		if len(rec) != statusRecSize {
			loadErr = fmt.Errorf("msgstore: status record of %d bytes (record %s of s:%s)", len(rec), rid, name)
			return false
		}
		id := MsgID(binary.LittleEndian.Uint64(rec))
		statuses[id] = statusEntry{rid: rid, status: rec[8]}
		ms.assignAbove(id)
		return true
	})
	if err == nil && loadErr == nil {
		err = ms.ps.Scan(h, func(rid store.RID, rec []byte) bool {
			m, err := l.load(rec)
			if err != nil {
				loadErr = fmt.Errorf("%w (record %s of q:%s)", err, rid, name)
				return false
			}
			e, ok := statuses[m.id]
			if !ok {
				loadErr = fmt.Errorf("msgstore: message %d has no status record (record %s of q:%s)", m.id, rid, name)
				return false
			}
			if ms.shard(m.id).byID[m.id] != nil {
				loadErr = fmt.Errorf("msgstore: message %d appears twice (record %s of q:%s)", m.id, rid, name)
				return false
			}
			m.rid, m.statusRID, m.q = rid, e.rid, q
			m.processed.Store(e.status&statusProcessed != 0)
			q.msgs = append(q.msgs, m)
			q.live++
			ms.shard(m.id).byID[m.id] = m
			return true
		})
	}
	if err == nil {
		err = loadErr
	}
	if err != nil {
		return err
	}
	sort.Slice(q.msgs, func(i, j int) bool { return q.msgs[i].id < q.msgs[j].id })
	ms.queues[name] = q
	return nil
}

func (ms *Store) loadCollection(name string) error {
	h, _ := ms.ps.Heap("c:" + name)
	c := &collection{name: name, heap: h}
	var loadErr error
	err := ms.ps.Scan(h, func(rid store.RID, rec []byte) bool {
		doc, err := xmldom.Decode(rec)
		if err != nil {
			loadErr = fmt.Errorf("msgstore: %w (record %s of c:%s)", err, rid, name)
			return false
		}
		c.docs = append(c.docs, doc)
		return true
	})
	if err == nil {
		err = loadErr
	}
	if err != nil {
		return err
	}
	ms.colls[name] = c
	return nil
}

// --- message record encoding ---
//
//	[0]   status byte: bit0 processed (never set here), bit1 binary payload
//	      (always set)
//	[1:9] msgID
//	[9:17] enqueued unix nanos
//	[17:19] property count
//	per property: u16 name len, name, u8 type, u16 value len, value (lexical)
//	u32 payload len, payload (binary tree encoding)
//
// Payload records are immutable after insert. The status byte of a message
// lives in the queue's status side-heap ("s:" + name) as a 9-byte record
// [msgID u64 LE, status byte]: ~600 statuses share one 8KB page, so marking a
// claimed batch processed dirties one or two dense pages instead of
// rewriting a payload page per message. The payload record's copy at offset 0
// is written once and never read: keeping it leaves the record format, and
// every store already written, unchanged.

const (
	statusProcessed     = byte(1 << 0)
	statusBinaryPayload = byte(1 << 1)

	statusRecSize = 9 // [0:8] msgID little-endian, [8] status byte
)

// statusByte is the on-disk status byte of a message. store.Txn.SetByte
// rewrites the whole byte, so the payload-format bit rides along with the
// processed flag.
func statusByte(processed bool) byte {
	if processed {
		return statusBinaryPayload | statusProcessed
	}
	return statusBinaryPayload
}

// appendStatusRecord builds the status side-heap record for a message.
func appendStatusRecord(dst []byte, id MsgID, status byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(id))
	return append(dst, status)
}

// recBufPool recycles record build buffers across commits, so a steady
// enqueue load does not allocate a fresh record buffer per message (the
// page store copies the record on Insert).
var recBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// appendMessageRecord appends the full record of a staged message — header,
// properties and payload — and returns the extended buffer. The payload is
// pe.enc verbatim when the streaming ingest path pre-encoded it, else pe.doc
// rendered in the binary tree encoding.
func (ms *Store) appendMessageRecord(dst []byte, pe *pendingEnqueue) []byte {
	type kv struct {
		k, v string
		t    uint8
	}
	props := make([]kv, 0, len(pe.props))
	for k, v := range pe.props {
		props = append(props, kv{k: k, v: v.StringValue(), t: uint8(v.T)})
	}
	sort.Slice(props, func(i, j int) bool { return props[i].k < props[j].k })
	dst = append(dst, statusByte(false))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pe.id))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(pe.at.UnixNano()))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(props)))
	for _, p := range props {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.k)))
		dst = append(dst, p.k...)
		dst = append(dst, p.t)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(p.v)))
		dst = append(dst, p.v...)
	}
	lenOff := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	if pe.enc != nil {
		dst = append(dst, pe.enc...)
	} else {
		dst = xmldom.EncodeAppend(dst, pe.doc)
	}
	n := len(dst) - lenOff - 4
	binary.LittleEndian.PutUint32(dst[lenOff:], uint32(n))
	ms.payloadEncBytes.Add(uint64(n))
	return dst
}

// messageRecord is what walkRecord reads off an encoded message record.
type messageRecord struct {
	id       MsgID
	enqueued time.Time
	props    []byte // the property section, count included
	payload  int    // offset of the payload
}

// walkRecord checks every length of an encoded message record against the
// record and calls prop, if not nil, for each property in record order. It
// is the one reader of the layout: decodeMessage, the open pass and the
// payload reads all go through it, so they accept the same records.
func walkRecord(data []byte, prop func(name, val []byte, typ xdm.Type)) (messageRecord, error) {
	if len(data) < 19 {
		return messageRecord{}, fmt.Errorf("msgstore: record too short")
	}
	end, err := walkProps(data[17:], prop)
	if err != nil {
		return messageRecord{}, err
	}
	off := 17 + end
	if off+4 > len(data) {
		return messageRecord{}, fmt.Errorf("msgstore: truncated payload length")
	}
	plen := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if off+plen > len(data) {
		return messageRecord{}, fmt.Errorf("msgstore: truncated payload")
	}
	return messageRecord{
		id:       MsgID(binary.LittleEndian.Uint64(data[1:])),
		enqueued: time.Unix(0, int64(binary.LittleEndian.Uint64(data[9:]))).UTC(),
		props:    data[17 : 17+end],
		payload:  off,
	}, nil
}

// walkProps walks a property section — a u16 count, then the entries — and
// returns its length.
func walkProps(sec []byte, prop func(name, val []byte, typ xdm.Type)) (int, error) {
	n := int(binary.LittleEndian.Uint16(sec))
	off := 2
	for i := 0; i < n; i++ {
		if off+2 > len(sec) {
			return 0, fmt.Errorf("msgstore: truncated property")
		}
		kl := int(binary.LittleEndian.Uint16(sec[off:]))
		off += 2
		if off+kl+1+2 > len(sec) {
			return 0, fmt.Errorf("msgstore: truncated property key")
		}
		name := sec[off : off+kl]
		off += kl
		typ := xdm.Type(sec[off])
		off++
		vl := int(binary.LittleEndian.Uint16(sec[off:]))
		off += 2
		if off+vl > len(sec) {
			return 0, fmt.Errorf("msgstore: truncated property value")
		}
		if prop != nil {
			prop(name, sec[off:off+vl], typ)
		}
		off += vl
	}
	return off, nil
}

// decodeProps builds the property map of a section walkProps accepted; a
// name that repeats keeps its last value.
func decodeProps(sec []byte) map[string]xdm.Value {
	n := binary.LittleEndian.Uint16(sec)
	if n == 0 {
		return nil
	}
	props := make(map[string]xdm.Value, n)
	walkProps(sec, func(name, val []byte, typ xdm.Type) {
		props[string(name)] = castProp(string(val), typ)
	})
	return props
}

// castProp is a stored property's value: its lexical form cast to its
// recorded type, or the plain string if the cast fails.
func castProp(val string, typ xdm.Type) xdm.Value {
	v, err := xdm.NewString(val).Cast(typ)
	if err != nil {
		return xdm.NewString(val)
	}
	return v
}

// decodeMessage decodes a record's header and property map.
func decodeMessage(data []byte) (*msgMeta, error) {
	r, err := walkRecord(data, nil)
	if err != nil {
		return nil, err
	}
	return &msgMeta{id: r.id, enqueued: r.enqueued, props: decodeProps(r.props)}, nil
}

// --- property secondary index ---

// indexableProp excludes the engine's system namespace from the property
// index: "demaq:" properties (creating rule, wall-clock timestamps) are
// never dispatch predicates or slice keys, and timestamps are near-unique —
// indexing them would double the index for rule-created messages without
// ever serving a probe. The one exception is the multi-valued marker
// (property.MultiValued), which index-probed qs:queue() reads look up.
func indexableProp[S ~string | ~[]byte](name S) bool {
	return !hasPrefix(name, "demaq:") || hasPrefix(name, "demaq:multi:")
}

func hasPrefix[S ~string | ~[]byte](s S, prefix string) bool {
	return len(s) >= len(prefix) && string(s[:len(prefix)]) == prefix
}

// indexMessage inserts a published message's property postings. Called with
// no msgstore lock held (the B-tree has its own latches).
func (ms *Store) indexMessage(m *msgMeta) {
	if ms.propIndex == nil {
		return
	}
	for k, v := range m.propsMap() {
		if indexableProp(k) {
			ms.propIndex.Insert(store.IndexKey(uint64(m.id), k, v.StringValue()), nil)
		}
	}
}

// unindexMessage drops a removed message's postings; the caller must not
// hold shard or queue locks.
func (ms *Store) unindexMessage(m *msgMeta) {
	if ms.propIndex == nil {
		return
	}
	for k, v := range m.propsMap() {
		if indexableProp(k) {
			ms.propIndex.Delete(store.IndexKey(uint64(m.id), k, v.StringValue()))
		}
	}
}

// PropertyIndexEnabled reports whether the secondary property index is
// maintained; when false the Property* scans return nothing and callers
// must use their scan fallbacks.
func (ms *Store) PropertyIndexEnabled() bool { return ms.propIndex != nil }

// PropertyIDsRange appends to dst the ids of live messages whose property
// prop has the string form value, restricted to the window lo <= id <= hi,
// ascending. Batch dispatch probes use it with the claimed batch's id
// window.
func (ms *Store) PropertyIDsRange(prop, value string, lo, hi MsgID, dst []MsgID) []MsgID {
	if ms.propIndex == nil || hi < lo {
		return dst
	}
	prefix := store.IndexKeyPrefix(prop, value)
	loKey := store.AppendIndexKeyID(append([]byte(nil), prefix...), uint64(lo))
	visit := func(k, _ []byte) bool {
		id := MsgID(store.IndexKeyID(k))
		if ms.lookup(id) != nil {
			dst = append(dst, id)
		}
		return true
	}
	if hi == ^MsgID(0) {
		ms.propIndex.ScanPrefixFrom(prefix, loKey, visit)
	} else {
		hiKey := store.AppendIndexKeyID(prefix, uint64(hi)+1)
		ms.propIndex.Scan(loKey, hiKey, visit)
	}
	return dst
}

// payloadOffset computes where the payload starts in an encoded record, or
// -1 if the record is truncated or inconsistent. Records are validated at
// load, but Doc re-reads them from disk, so the walk re-checks bounds
// rather than trusting the stored lengths.
func payloadOffset(data []byte) int {
	r, err := walkRecord(data, nil)
	if err != nil {
		return -1
	}
	return r.payload
}
