package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a store.
type Options struct {
	// VFS supplies the file implementation; nil means the real filesystem.
	// Tests inject a fault-injecting file system here to replay crashes
	// and I/O errors deterministically.
	VFS VFS
	// BufferPages is the buffer pool capacity in pages (default 1024).
	BufferPages int
	// SyncCommits fsyncs the WAL on every commit (default). Disabling
	// trades durability of the most recent commits for throughput
	// (experiment A3).
	SyncCommits bool
	// UnloggedDeletes enables the paper's retention-based deletion
	// optimization: BatchDelete writes redo-only records without before
	// images (Sec. 4.1). Disabled, deletes are logged with full before
	// images, which is the comparison baseline of experiment E3.
	UnloggedDeletes bool

	// WALSegmentSize is the roll threshold for WAL segment files in bytes
	// (0 = 4 MiB). Smaller segments reclaim space sooner after a
	// checkpoint at the cost of more file churn.
	WALSegmentSize int64
	// WALSoftBudget bounds the live WAL (bytes at or after the last
	// checkpoint's redo point) softly: beyond it the checkpoint scheduler
	// should run a checkpoint, and commits start to be throttled
	// proportionally to how far past it the log has grown. With a hard
	// budget set, 0 or a value not below it means half the hard budget
	// (Store.WALSoftBudget); without one, 0 disables.
	WALSoftBudget int64
	// WALHardBudget is the ceiling the throttle ramps toward: at or past
	// it commits pay the maximum throttle delay and the engine sheds new
	// ingest with 429 + Retry-After until the checkpointer catches up.
	// 0 disables.
	WALHardBudget int64
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{BufferPages: 1024, SyncCommits: true, UnloggedDeletes: true}
}

const (
	storeMagic   = "DEMAQST1"
	dataFileName = "data.db"
	// walLegacyFileName is the single-file WAL of stores formatted before
	// log segmentation; its presence with content makes Open fail rather
	// than silently ignore committed data.
	walLegacyFileName = "wal.log"

	catalogHeapID    = 0
	catalogFirstPage = 1

	// The header page carries the checkpoint redo offset — the logical log
	// offset recovery replays from — in two CRC-protected ping-pong slots.
	// Checkpoints alternate between them, so a torn or lost slot write
	// leaves the previous slot — which pairs with the still-intact previous
	// on-disk state — valid. Format writes slot A before anything can be
	// logged, so a header with no valid slot is a torn format.
	hdrSlotA    = 64
	hdrSlotB    = 96
	hdrSlotSize = 20 // seq u64 | redo offset u64 | crc32 u32
	headerBytes = hdrSlotB + hdrSlotSize
)

// writeHeaderSlot encodes one header slot into b.
func writeHeaderSlot(b []byte, seq, redo uint64) {
	binary.LittleEndian.PutUint64(b[0:], seq)
	binary.LittleEndian.PutUint64(b[8:], redo)
	binary.LittleEndian.PutUint32(b[16:], crc32.ChecksumIEEE(b[:16]))
}

// parseHeaderSlots returns the newest valid (redo offset, seq) pair; seq is
// 0 when neither slot validates.
func parseHeaderSlots(hdr []byte) (redo, seq uint64) {
	for _, off := range []int{hdrSlotA, hdrSlotB} {
		s := hdr[off : off+hdrSlotSize]
		if crc32.ChecksumIEEE(s[:16]) != binary.LittleEndian.Uint32(s[16:]) {
			continue
		}
		if sq := binary.LittleEndian.Uint64(s[0:]); sq > seq {
			seq = sq
			redo = binary.LittleEndian.Uint64(s[8:])
		}
	}
	return redo, seq
}

// heapInfo is the in-memory descriptor of one record heap. The first page
// never changes; the mutable tail and the chain structure carry their own
// locks so that inserts into different heaps — and reads anywhere — never
// serialize on a store-wide mutex.
type heapInfo struct {
	id    uint32
	name  string
	first PageID

	// appendMu serializes inserts into this heap: it guards last and the
	// tail page's growth. Only the tail is latched under it, so readers of
	// other pages of the heap are unaffected.
	appendMu sync.Mutex
	last     PageID

	// chainMu guards the page chain's structure against unlinking: Scan
	// holds it shared for the duration of the walk, reclaimEmptyPages
	// exclusively — but only one bounded batch at a time. Appending a new
	// tail page does not take it — scanners tolerate a growing chain, but
	// not a shrinking one.
	chainMu sync.RWMutex

	// reclaimMu serializes reclaimers of this heap: reclaim releases
	// chainMu between batches, and its resume cursor is only valid if no
	// other reclaimer unlinks pages meanwhile.
	reclaimMu sync.Mutex
}

// Stats reports storage counters.
type Stats struct {
	PageCount    uint32
	FreePages    int
	BufferHits   uint64
	BufferMisses uint64
	Evictions    uint64
	LogBytes     uint64
	Commits      uint64
	Aborts       uint64

	// Group-commit observability: WALFsyncs counts
	// physical fsyncs; WALFlushCalls counts commit flush requests that had
	// work to do; WALCoalesced counts requests satisfied by another
	// committer's fsync. WALFsyncs / Commits < 1 under concurrency means
	// group commit is coalescing.
	WALFsyncs     uint64
	WALFlushCalls uint64
	WALCoalesced  uint64

	// Write-back observability: PagesWritten counts pages written back to
	// the data file (evictions and checkpoints); WriteBackFlushes counts
	// the log flushes those write-backs waited for. PagesWritten /
	// WriteBackFlushes is the number of pages one flush covered.
	PagesWritten     uint64
	WriteBackFlushes uint64

	// Checkpoint/recovery observability: WALLiveBytes is the log volume a
	// crash right now would replay through (bytes at or after the last
	// published redo offset) — the quantity the WAL budgets bound.
	// RecoveryRecordsReplayed is from the most recent Open of this store.
	WALLiveBytes            uint64
	WALSegments             int
	WALSegRolls             uint64
	DirtyPages              int
	Checkpoints             uint64
	WALThrottles            uint64
	LastCheckpointDuration  time.Duration
	LastRecoveryDuration    time.Duration
	RecoveryRecordsReplayed uint64
}

// Store is the page-based storage engine. All operations are safe for
// concurrent use. Synchronization is fine-grained: the
// buffer pool is lock-striped with per-page latches (see buffer.go for the
// latch hierarchy), page allocation and the free list sit under allocMu,
// the heap catalog under heapMu, and each heap serializes only its own
// inserts via a per-heap append lock. Record reads and B-tree lookups run
// fully in parallel. Disk I/O for misses and write-back happens outside the
// shard mutexes and the page latches: a write-back copies each page of a
// batch of up to writeBatch pages under its read latch, then flushes the
// log once and writes the copies. An inserter whose allocation must evict
// dirty pages still writes them under its heap's append lock; batching
// pays one log flush there per writeBatch pages instead of one per page.
type Store struct {
	dir  string
	opts Options

	file File
	log  *wal
	pool *bufferPool

	// hdrSeq is the sequence number of the active header slot; checkpoints
	// increment it and write the slot the new parity selects. Guarded by
	// ckptMu (exclusive in every writer).
	hdrSeq uint64

	// allocMu guards page allocation: pageCount and the free list.
	allocMu   sync.Mutex
	pageCount uint32
	freeList  []PageID

	// heapMu guards the heap catalog maps. Per-heap mutable state lives on
	// heapInfo under its own locks.
	heapMu    sync.RWMutex
	heaps     map[uint32]*heapInfo
	heapNames map[string]uint32
	nextHeap  uint32

	nextTxn atomic.Uint64
	commits atomic.Uint64 // incremented with the commit record (pre-commit), once per transaction
	aborts  atomic.Uint64

	// txnMu guards activeTxns: every transaction that has logged at least
	// one record, keyed by id, valued with its first record's LSN. A fuzzy
	// checkpoint may not advance the log head past the first record of any
	// transaction still active at its begin fence — those records are the
	// undo information recovery needs if the transaction loses.
	txnMu      sync.Mutex
	activeTxns map[uint64]uint64

	checkpoints atomic.Uint64
	throttles   atomic.Uint64
	lastCkptNs  atomic.Int64
	lastRecNs   atomic.Int64
	recReplayed atomic.Uint64
	// redoHeld holds a pin on every page recovery's forward pass touched;
	// nil outside the pass. recFrames is the number of frames buffered when
	// the most recent pass ended, the most recovery held.
	redoHeld  map[PageID]*frame
	recFrames int

	// lifeMu serializes lifecycle operations (Close, Checkpoint, crash
	// simulation) against each other.
	lifeMu sync.Mutex
	closed bool

	// ckptMu fences checkpoints against in-flight operations: every public
	// data operation — log-appending writes AND reads — holds it shared
	// (an uncontended RLock, not a serialization point); Checkpoint/Close
	// hold it exclusively. Without it, a commit racing a checkpoint could
	// append records between the checkpoint's log flush and its truncation
	// and have them silently discarded, and Close could shut the files
	// under a read's pending disk I/O. The engine quiesces before
	// checkpointing, but the store must not lose committed data when a
	// caller gets that wrong.
	ckptMu sync.RWMutex
}

// Open opens (creating if necessary) a store in dir and runs crash
// recovery.
func Open(dir string, opts Options) (*Store, error) {
	if opts.BufferPages == 0 {
		opts.BufferPages = 1024
	}
	vfs := opts.VFS
	if vfs == nil {
		vfs = OSFileSystem()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	file, err := vfs.OpenFile(filepath.Join(dir, dataFileName))
	if err != nil {
		return nil, err
	}
	file = &retryFile{f: file}
	fail := func(err error) (*Store, error) {
		file.Close()
		return nil, err
	}
	// A store formatted before log segmentation keeps its whole WAL in a
	// single wal.log; its committed data cannot be recovered by this
	// version, so refuse to touch it rather than silently discard it.
	if names, err := vfs.ReadDir(dir); err == nil {
		for _, n := range names {
			if n != walLegacyFileName {
				continue
			}
			lf, err := vfs.OpenFile(filepath.Join(dir, walLegacyFileName))
			if err != nil {
				return fail(err)
			}
			lsize, serr := lf.Size()
			lf.Close()
			if serr != nil {
				return fail(serr)
			}
			if lsize != 0 {
				return fail(fmt.Errorf("store: legacy single-file WAL present; cannot open pre-segmentation store"))
			}
		}
	}

	size, err := file.Size()
	if err != nil {
		return fail(err)
	}
	// A crash during the initial format can leave a missing, empty, or torn
	// data file. Formatting syncs before any WAL record can exist, so a
	// short header, a bad magic or no valid slot alongside an EMPTY WAL
	// means nothing was ever committed and reformatting is safe. With a
	// non-empty WAL the header is load-bearing — silently resetting the
	// redo offset to zero would let stale page LSNs mask the redo of newer
	// log records — so the open must fail instead.
	isNew := size < 2*PageSize
	redoOff, hdrSeq := uint64(0), uint64(0)
	if !isNew {
		hdr := make([]byte, headerBytes)
		if _, err := file.ReadAt(hdr, 0); err != nil {
			return fail(fmt.Errorf("store: read header: %w", err))
		}
		if string(hdr[24:24+len(storeMagic)]) == storeMagic {
			redoOff, hdrSeq = parseHeaderSlots(hdr)
		}
		isNew = hdrSeq == 0 // torn format — unless the WAL says otherwise below
	}
	log, err := openWALDir(vfs, dir, redoOff, opts.SyncCommits, uint64(opts.WALSegmentSize))
	if err != nil {
		return fail(err)
	}
	if isNew && log.size() > 0 {
		log.close()
		return fail(fmt.Errorf("store: torn or truncated header (data file %d bytes) with non-empty WAL", size))
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		file:       file,
		log:        log,
		hdrSeq:     hdrSeq,
		heaps:      map[uint32]*heapInfo{},
		heapNames:  map[string]uint32{},
		nextHeap:   1,
		activeTxns: map[uint64]uint64{},
	}
	s.nextTxn.Store(1)
	s.pool = newBufferPool(opts.BufferPages, file, log)

	if isNew {
		if err := s.format(); err != nil {
			s.closeFiles()
			return nil, err
		}
		return s, nil
	}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

func (s *Store) closeFiles() {
	s.file.Close()
	s.log.close()
}

// format initializes a fresh store: header page 0 and the catalog heap on
// page 1.
func (s *Store) format() error {
	header := make([]byte, PageSize)
	copy(header[24:], storeMagic)
	s.hdrSeq = 1
	writeHeaderSlot(header[hdrSlotA:], s.hdrSeq, 0)
	if _, err := s.file.WriteAt(header, 0); err != nil {
		return err
	}
	cat := page{id: catalogFirstPage, buf: make([]byte, PageSize)}
	cat.format()
	if _, err := s.file.WriteAt(cat.buf, PageSize); err != nil {
		return err
	}
	if err := s.file.Sync(); err != nil {
		return err
	}
	s.pageCount = 2
	s.heaps[catalogHeapID] = &heapInfo{id: catalogHeapID, name: "__catalog", first: catalogFirstPage, last: catalogFirstPage}
	return nil
}

// load reads the header, catalog and heap chains, then runs recovery.
// It runs single-threaded before the store is published.
func (s *Store) load() error {
	size, err := s.file.Size()
	if err != nil {
		return err
	}
	if size%PageSize != 0 {
		// A crash can leave a partially grown file; trim to whole pages.
		if err := s.file.Truncate(size - size%PageSize); err != nil {
			return err
		}
		size -= size % PageSize
	}
	s.pageCount = uint32(size / PageSize)
	if s.pageCount < 2 {
		return fmt.Errorf("store: data file too small")
	}
	hdr := make([]byte, PageSize)
	if _, err := s.file.ReadAt(hdr, 0); err != nil {
		return err
	}
	if string(hdr[24:24+len(storeMagic)]) != storeMagic {
		return fmt.Errorf("store: bad magic, not a demaq store")
	}
	s.heaps[catalogHeapID] = &heapInfo{id: catalogHeapID, name: "__catalog", first: catalogFirstPage, last: catalogFirstPage}

	if err := s.recover(); err != nil {
		return fmt.Errorf("store: recovery: %w", err)
	}
	if err := s.rebuildChainsAndFreeList(); err != nil {
		return err
	}
	// Quiescent checkpoint after recovery: the next crash replays from
	// here instead of repeating this recovery's work. A clean reopen has
	// nothing to checkpoint and writes nothing at all.
	if s.idle() {
		return nil
	}
	return s.checkpoint()
}

// loadCatalog registers the heaps the catalog records. A record that does
// not decode, or repeats a heap id or name, fails the open naming it.
func (s *Store) loadCatalog() error {
	s.heapNames = map[string]uint32{}
	maxID := uint32(0)
	var bad error
	err := s.scanHeap(s.heaps[catalogHeapID], func(rid RID, data []byte) bool {
		if len(data) < 10 || len(data) < 10+int(binary.LittleEndian.Uint16(data[8:])) {
			bad = fmt.Errorf("store: catalog record %s of %d bytes does not decode", rid, len(data))
			return false
		}
		id := binary.LittleEndian.Uint32(data[0:])
		first := PageID(binary.LittleEndian.Uint32(data[4:]))
		name := string(data[10 : 10+int(binary.LittleEndian.Uint16(data[8:]))])
		if _, dup := s.heapNames[name]; dup || s.heaps[id] != nil {
			bad = fmt.Errorf("store: catalog record %s repeats heap %d %q", rid, id, name)
			return false
		}
		s.heaps[id] = &heapInfo{id: id, name: name, first: first, last: first}
		s.heapNames[name] = id
		maxID = max(maxID, id)
		return true
	})
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	s.nextHeap = maxID + 1
	return nil
}

// openReadChunk is how much of the data file one ReadAt of the open pass
// reads.
const openReadChunk = 128 * PageSize

// pageMap is what the open pass keeps of the data file: ≈ 6 bytes per
// page, plus the overflow heads of live records and the pages that failed
// to parse.
type pageMap struct {
	next   []PageID
	flags  []uint16
	ovRefs []ovRef
	bad    map[PageID]error // record pages with an unsound layout or record header

	inChain    []bool // page is on a heap chain walked so far
	referenced []bool // page is on the overflow chain of a live record
}

// ovRef is a live overflow record and the first page of its chain.
type ovRef struct {
	rid  RID
	head PageID
}

// rebuildChainsAndFreeList finds every heap's tail page and the free list
// in one sequential pass over the data file, outside the buffer pool: Open
// is single-threaded here, and once recovery's dirty pages are written
// back the file is the store. Per page the pass keeps the chain pointer and
// the flags, and per record page the overflow heads of its live records;
// the chain tails, the pages live overflow records reference and the free
// list are then computed in memory. The catalog is loaded between the two:
// its chain is checked before it is scanned. A free-flagged page that a
// live record still references stays off the free list and has its flag
// cleared through the pool, closing the crash window between an overflow
// free and its transaction's outcome.
//
// The pass checks what it reads and fails naming the page: no page carries
// an LSN beyond the log end, every heap page has a sound slotted layout and
// sound inline record headers, and every chain stays inside the file
// without a cycle; heap chains share no page and hold no free or overflow
// page.
func (s *Store) rebuildChainsAndFreeList() error {
	if err := s.pool.flushPages(s.pool.dirtyPages()); err != nil {
		return err
	}
	m, err := s.readPageMap()
	if err != nil {
		return err
	}
	if err := m.walkHeap(s.heaps[catalogHeapID]); err != nil {
		return err
	}
	if err := s.loadCatalog(); err != nil {
		return err
	}
	ids := make([]uint32, 0, len(s.heaps))
	for id := range s.heaps {
		if id != catalogHeapID {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		if err := m.walkHeap(s.heaps[id]); err != nil {
			return err
		}
	}
	if err := m.markReferenced(); err != nil {
		return err
	}
	s.freeList = s.freeList[:0]
	for pid := PageID(2); pid < PageID(len(m.flags)); pid++ {
		if m.flags[pid]&flagFree == 0 {
			continue
		}
		if !m.referenced[pid] {
			s.freeList = append(s.freeList, pid)
			continue
		}
		f, err := s.pool.get(pid)
		if err != nil {
			return err
		}
		f.pg.setFlags(f.pg.flags() &^ flagFree)
		s.pool.unpin(f, true)
	}
	return nil
}

// readPageMap is the open pass: it reads the data file front to back, in
// chunks of openReadChunk into one reused buffer.
func (s *Store) readPageMap() (*pageMap, error) {
	n := PageID(s.pageCount)
	logEnd := s.log.size()
	m := &pageMap{
		next:       make([]PageID, n),
		flags:      make([]uint16, n),
		bad:        map[PageID]error{},
		inChain:    make([]bool, n),
		referenced: make([]bool, n),
	}
	buf := make([]byte, openReadChunk)
	const chunkPages = openReadChunk / PageSize
	for first := PageID(1); first < n; first += chunkPages {
		cnt := min(n-first, chunkPages)
		chunk := buf[:int(cnt)*PageSize]
		if _, err := s.file.ReadAt(chunk, int64(first)*PageSize); err != nil {
			return nil, fmt.Errorf("store: read pages %d-%d: %w", first, first+cnt-1, err)
		}
		for i := range cnt {
			pg := page{id: first + i, buf: chunk[int(i)*PageSize:][:PageSize]}
			if pg.lsn() > logEnd {
				return nil, fmt.Errorf("store: page %d LSN %d beyond log end %d", pg.id, pg.lsn(), logEnd)
			}
			m.next[pg.id], m.flags[pg.id] = pg.next(), pg.flags()
			if pg.flags()&(flagFree|flagOverflow) != 0 {
				continue
			}
			if err := pg.check(); err != nil {
				m.bad[pg.id] = err
				continue
			}
			for slot := uint16(0); slot < pg.slotCount(); slot++ {
				rec, ok := pg.read(slot)
				if !ok {
					continue
				}
				in, ok := decodeInline(rec)
				switch {
				case !ok:
					m.bad[pg.id] = fmt.Errorf("slot %d holds no valid record header", slot)
				case in.overflow:
					m.ovRefs = append(m.ovRefs, ovRef{RID{pg.id, slot}, in.head})
				}
			}
		}
	}
	return m, nil
}

// walkHeap follows a heap's chain to its tail page, checking every page on
// the way.
func (m *pageMap) walkHeap(h *heapInfo) error {
	n := PageID(len(m.next))
	if h.first == InvalidPage {
		return fmt.Errorf("store: heap %q has no first page", h.name)
	}
	for pid := h.first; pid != InvalidPage; pid = m.next[pid] {
		switch {
		case pid == 0 || pid >= n:
			return fmt.Errorf("store: heap %q: chain reaches page %d outside the data file (%d pages)", h.name, pid, n)
		case m.inChain[pid]:
			return fmt.Errorf("store: heap %q: page %d is linked into a heap chain twice", h.name, pid)
		case m.flags[pid]&(flagFree|flagOverflow) != 0:
			return fmt.Errorf("store: heap %q: chain page %d is flagged %#x", h.name, pid, m.flags[pid])
		case m.bad[pid] != nil:
			return fmt.Errorf("store: heap %q: page %d: %w", h.name, pid, m.bad[pid])
		}
		m.inChain[pid] = true
		h.last = pid
	}
	return nil
}

// markReferenced marks the overflow chains of the live records on heap
// chains.
func (m *pageMap) markReferenced() error {
	n := PageID(len(m.next))
	for _, r := range m.ovRefs {
		if !m.inChain[r.rid.Page] {
			continue
		}
		steps := PageID(0)
		for pid := r.head; pid != InvalidPage; pid = m.next[pid] {
			if pid == 0 || pid >= n || steps == n {
				return fmt.Errorf("store: overflow chain of record %s reaches page %d outside the data file (%d pages) or loops", r.rid, pid, n)
			}
			m.referenced[pid] = true
			steps++
		}
	}
	return nil
}

// Close checkpoints and closes the store.
func (s *Store) Close() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.checkpoint(); err != nil {
		return err
	}
	s.closed = true
	s.closeFiles()
	return nil
}

// Checkpoint runs a fuzzy incremental checkpoint: commits and reads keep
// flowing while dirty pages are written back. The exclusive ckptMu fence is
// held only for the begin instant — long enough to log recCkptBegin and
// snapshot the dirty-page set and active-transaction table — after which
// the written-back pages are synced, recCkptEnd (with the dirty-page table)
// is logged, the redo offset is published in the header, and log segments
// behind it are recycled. Recovery after a crash replays only records at or
// after the published redo offset, so checkpoint frequency — not uptime —
// bounds recovery work.
func (s *Store) Checkpoint() error {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed {
		return nil
	}
	return s.checkpointFuzzy()
}

func (s *Store) checkpointFuzzy() error {
	start := time.Now()
	// Phase 1 — the fence. Exclusive ckptMu drains in-flight data
	// operations, so the dirty-page snapshot is consistent: any record
	// logged before recCkptBegin has its page's dirty flag visible (or the
	// page already written back). clearImaged must happen here, at cycle
	// start, so every page written back in THIS cycle logs a fresh
	// full-page image after the redo point — an FPI before it would be
	// recycled away while a later torn write still needs it.
	s.ckptMu.Lock()
	if err := s.log.err(); err != nil {
		s.ckptMu.Unlock()
		return err
	}
	beginLSN := s.log.append(&logRecord{typ: recCkptBegin})
	s.pool.clearImaged()
	dirty := s.pool.dirtyPages()
	// The redo offset may not pass the first record of any transaction
	// still active at the fence: those records are its undo information.
	redo := beginLSN - 1
	s.txnMu.Lock()
	for _, first := range s.activeTxns {
		if off := first - 1; off < redo {
			redo = off
		}
	}
	s.txnMu.Unlock()
	s.ckptMu.Unlock()

	// Phase 2 — write back the snapshotted dirty set in write-back
	// batches, one log flush each, with no latch held across I/O; a page
	// whose write-back is in flight is waited for, so the sync below
	// covers it.
	if err := s.pool.flushPages(dirty); err != nil {
		return err
	}
	// Phase 3 — make the written-back pages durable before anything
	// references this checkpoint.
	if err := s.file.Sync(); err != nil {
		return err
	}
	// Phase 4 — close the bracket in the log. Once recCkptEnd is durable
	// the pages-up-to-beginLSN are known synced.
	endLSN := s.log.append(&logRecord{typ: recCkptEnd, ckptBegin: beginLSN, ckptRedo: redo, dpt: dirty})
	if err := s.log.flush(endLSN); err != nil {
		return err
	}
	// Phase 5 — publish the redo offset in the next ping-pong header slot.
	// A crash before this sync leaves the previous slot — which pairs with
	// the previous on-disk state — in force; replaying the longer tail is
	// idempotent (page LSN guards, full-page images).
	if err := s.publishRedo(redo); err != nil {
		return err
	}
	// Phase 6 — recycle segments wholly behind the published redo offset.
	s.log.advanceHead(redo)
	s.checkpoints.Add(1)
	s.lastCkptNs.Store(int64(time.Since(start)))
	return nil
}

// checkpoint is the quiescent variant, used at load (nothing concurrent)
// and Close (ckptMu held exclusively): with no activity in flight it can
// flush everything and publish the log end itself as the redo offset, so a
// clean restart replays zero records. An idle store only publishes the
// next header slot: the data file and the log already hold everything.
func (s *Store) checkpoint() error {
	start := time.Now()
	if s.idle() {
		// Every published slot is synced, so tearing or losing this write
		// leaves the current slot, with the same redo offset, in force.
		if err := s.publishRedo(s.log.size()); err != nil {
			return err
		}
		s.checkpoints.Add(1)
		s.lastCkptNs.Store(int64(time.Since(start)))
		return nil
	}
	if err := s.log.flush(^uint64(0) >> 1); err != nil {
		return err
	}
	if err := s.pool.flushPages(s.pool.dirtyPages()); err != nil {
		return err
	}
	// Make the flushed pages durable BEFORE publishing the advanced redo
	// offset: a crash that tears or loses the header write must leave the
	// previous (redo, pages) pair — which is self-consistent — on disk.
	// The reverse order could pair a new redo offset with lost page
	// writes, silently skipping their replay.
	if err := s.file.Sync(); err != nil {
		return err
	}
	// Pages are durable now; the next write-back of each page must log a
	// fresh full-page image after the new redo point.
	s.pool.clearImaged()
	redo := s.log.size()
	if err := s.publishRedo(redo); err != nil {
		return err
	}
	s.log.advanceHead(redo)
	s.checkpoints.Add(1)
	s.lastCkptNs.Store(int64(time.Since(start)))
	return nil
}

// idle reports whether nothing was written since the last published
// checkpoint: no page is dirty, and the log end is durable and equals the
// published redo offset. Every write-back after a checkpoint logs a
// full-page image first, so a page written since would have moved the log
// end too. A log with a sticky I/O error is never idle: the full
// checkpoint reports the error.
func (s *Store) idle() bool {
	end := s.log.size()
	return end == s.log.headOffset() && end == s.log.durable() && s.log.err() == nil && s.pool.dirtyCount() == 0
}

// publishRedo durably writes the next ping-pong header slot carrying the
// given redo offset. Only one checkpoint runs at a time (lifeMu), so hdrSeq
// is stable here.
func (s *Store) publishRedo(redo uint64) error {
	seq := s.hdrSeq + 1
	slot := make([]byte, hdrSlotSize)
	writeHeaderSlot(slot, seq, redo)
	off := int64(hdrSlotA)
	if seq%2 == 0 {
		off = hdrSlotB
	}
	if _, err := s.file.WriteAt(slot, off); err != nil {
		return err
	}
	if err := s.file.Sync(); err != nil {
		return err
	}
	s.hdrSeq = seq
	return nil
}

// DiskError reports the sticky log I/O error, if any: once a WAL write or
// fsync has failed the store can no longer guarantee durability of new
// commits, and callers should stop accepting writes.
func (s *Store) DiskError() error { return s.log.err() }

// CrashForTest simulates a crash: buffered pages are discarded without
// write-back and the files are closed without checkpointing. Only data made
// durable by the WAL survives, exactly as after a power failure.
func (s *Store) CrashForTest() {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.closed {
		return
	}
	s.pool.dropAll()
	s.closed = true
	s.closeFiles()
}

// Stats returns storage counters.
func (s *Store) Stats() Stats {
	fsyncs, flushCalls, coalesced := s.log.syncStats()
	s.allocMu.Lock()
	pageCount := s.pageCount
	freePages := len(s.freeList)
	s.allocMu.Unlock()
	segments, rolls := s.log.segmentStats()
	return Stats{
		PageCount:     pageCount,
		FreePages:     freePages,
		BufferHits:    s.pool.hits.Load(),
		BufferMisses:  s.pool.misses.Load(),
		Evictions:     s.pool.evictions.Load(),
		LogBytes:      s.log.size(),
		Commits:       s.commits.Load(),
		Aborts:        s.aborts.Load(),
		WALFsyncs:     fsyncs,
		WALFlushCalls: flushCalls,
		WALCoalesced:  coalesced,

		PagesWritten:     s.pool.pagesWritten.Load(),
		WriteBackFlushes: s.pool.wbFlushes.Load(),

		WALLiveBytes:            s.log.liveBytes(),
		WALSegments:             segments,
		WALSegRolls:             rolls,
		DirtyPages:              s.pool.dirtyCount(),
		Checkpoints:             s.checkpoints.Load(),
		WALThrottles:            s.throttles.Load(),
		LastCheckpointDuration:  time.Duration(s.lastCkptNs.Load()),
		LastRecoveryDuration:    time.Duration(s.lastRecNs.Load()),
		RecoveryRecordsReplayed: s.recReplayed.Load(),
	}
}

// LiveLogBytes returns the log volume a crash right now would have to
// replay through — the quantity the WAL soft/hard budgets bound. The engine
// consults it for ingest admission under a hard budget.
func (s *Store) LiveLogBytes() uint64 { return s.log.liveBytes() }

// WALSoftBudget returns the soft budget in effect: Options.WALSoftBudget,
// or half the hard budget when a hard budget is set and the soft one is
// unset or not below it. Commits are throttled past it, and the engine's
// checkpoint scheduler checkpoints past it. 0 means no soft budget.
func (s *Store) WALSoftBudget() int64 {
	soft, hard := s.opts.WALSoftBudget, s.opts.WALHardBudget
	if hard > 0 && (soft <= 0 || soft >= hard) {
		return hard / 2
	}
	return soft
}

// commitThrottle is the graceful-degradation ramp between the WAL soft and
// hard budgets: commits pay a delay that grows from zero at the soft budget
// to maxThrottle at the hard budget (and stays there beyond it), slowing
// log production while the checkpointer catches up. Past the hard budget
// the engine additionally sheds new ingest; the throttle still bounds the
// log growth of work already admitted.
func (s *Store) commitThrottle() {
	hard := s.opts.WALHardBudget
	if hard <= 0 {
		return
	}
	soft := s.WALSoftBudget()
	live := int64(s.log.liveBytes())
	if live <= soft {
		return
	}
	const maxThrottle = 5 * time.Millisecond
	frac := float64(live-soft) / float64(hard-soft)
	if frac > 1 {
		frac = 1
	}
	s.throttles.Add(1)
	time.Sleep(time.Duration(frac * float64(maxThrottle)))
}

// --- page allocation ---

const flagFree uint16 = 1 << 15

// allocPage returns a pinned, formatted frame for a new page, preferring
// the free list. The allocation is logged redo-only. Page IDs are handed
// out under allocMu; the formatting (and its log record) happens under the
// new frame's write latch, though the page is unreachable by other threads
// until the caller links it into a chain.
func (s *Store) allocPage(t *Txn, flags uint16, prev, next PageID) (*frame, error) {
	s.allocMu.Lock()
	var pid PageID
	if n := len(s.freeList); n > 0 {
		pid = s.freeList[n-1]
		s.freeList = s.freeList[:n-1]
	} else {
		pid = PageID(s.pageCount)
		s.pageCount++
	}
	s.allocMu.Unlock()
	f, err := s.pool.fresh(pid)
	if err != nil {
		s.allocMu.Lock()
		s.freeList = append(s.freeList, pid)
		s.allocMu.Unlock()
		return nil, err
	}
	f.latch.Lock()
	f.pg.format()
	f.pg.setFlags(flags)
	f.pg.setPrev(prev)
	f.pg.setNext(next)
	lsn := s.log.append(&logRecord{typ: recFormatPage, txn: t.id, prevLSN: t.lastLSN, page: pid, flags: flags, page2: prev, page3: next})
	t.lastLSN = lsn
	f.pg.setLSN(lsn)
	f.latch.Unlock()
	return f, nil
}
