package store

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
)

// The buffer pool is lock-striped: frames live in poolShardCount
// hash-partitioned maps, each guarded by its own small mutex that is only
// held for map and pin bookkeeping — never across disk I/O. Page content is
// protected by a per-frame reader/writer latch, so lookups of different
// pages (and concurrent readers of the same page) proceed fully in
// parallel, and a page being read from disk blocks only the callers that
// need that very page.
//
// Latch hierarchy (deadlock freedom), highest first:
//
//	heap chain lock > heap append lock > page latch > {alloc mutex, shard mutex} > wal mutex
//
// A thread may skip levels but never acquires a higher level while holding
// a lower one. Shard mutexes and the alloc mutex are leaf-like: only the
// wal mutex is ever acquired below them, and never while one is held.
// Page latches of distinct pages are only held together when the second
// page is unreachable by other threads (a freshly allocated page, an
// overflow page of a record whose owning page we latched) — no thread
// waits for a latched page while holding another the first thread wants —
// or when a write-back copies a page (see writeBackAll).
//
// Pin protocol: pin (get/fresh) → latch → operate → unlatch → unpin. A
// pinned frame is never evicted.
//
// A frame is in one of three states, each visible under its shard mutex:
// loading (a disk read is in flight: loading is non-nil, and getters wait
// for it), buffered, and buffered with a write-back in flight (writing is
// non-nil and the write-back holds a pin). Frames stay readable and
// writable while they are written: a write-back latches each page only for
// as long as it copies it, and does its log flush and its page writes with
// no latch held. Eviction does no I/O on its victim: it drops a clean
// frame and cleans dirty ones through the same batched write-back first.
const poolShardCount = 16

// writeBatch is the most pages one write-back batch copies, covers with one
// log flush, and writes. A shard of the default 1024-page pool holds 64
// frames, so an eviction that finds no clean frame cleans the older half of
// its shard and leaves the recently used half, the likeliest to be dirtied
// again, alone. On the benchmark's history-lookup preload (2 vCPUs, 1 ms
// modelled flush) batches of 8 to 64 pages took the same time, the preload
// being CPU-bound once batched, while the write-back flushes fell from
// about 720 to 105 and the pages written rose from about 5.7k to 6.5k. 32
// pages are 256 KB of copies.
const writeBatch = 32

// frame is one buffered page. The latch guards the page bytes; the
// bookkeeping fields (pins, dirty, lastUse, loading, writing) are guarded
// by the owning shard's mutex.
type frame struct {
	pg    page
	latch sync.RWMutex

	pins    int
	dirty   bool
	lastUse uint64
	loading chan struct{} // non-nil while the page is read from disk; closed when done
	writing chan struct{} // non-nil while a write-back of the page is in flight; closed when done
}

type poolShard struct {
	mu     sync.Mutex
	cap    int // this shard's share of the pool capacity
	frames map[PageID]*frame
}

// bufferPool caches pages of the data file with per-shard LRU eviction
// honoring the WAL rule: a dirty page is written back only after the log is
// durable up to the page's LSN (steal policy); commits do not force page
// writes (no-force policy).
//
// Capacity is enforced per shard (total capacity split evenly). A shard
// whose frames are all pinned or loading grows past its share instead of
// failing — multi-page operations never dead-end on a full pool — and
// shrinks back as pins release or later misses find evictable frames.
type bufferPool struct {
	shards [poolShardCount]poolShard
	clock  atomic.Uint64
	file   File
	log    *wal

	// imaged tracks pages whose full image has been logged since the last
	// checkpoint (torn-write protection, see writeBackAll). Cleared by the
	// checkpoint once the data file is synced.
	imagedMu sync.Mutex
	imaged   map[PageID]bool

	hits, misses, evictions atomic.Uint64
	// pagesWritten counts pages written back; wbFlushes the log flushes a
	// write-back batch waited for.
	pagesWritten, wbFlushes atomic.Uint64
}

func newBufferPool(capacity int, file File, log *wal) *bufferPool {
	if capacity < poolShardCount {
		capacity = poolShardCount // at least one frame per shard
	}
	bp := &bufferPool{file: file, log: log, imaged: map[PageID]bool{}}
	// Split the capacity exactly: the first capacity%N shards take one
	// extra frame, so the aggregate equals Options.BufferPages.
	base, rem := capacity/poolShardCount, capacity%poolShardCount
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.cap = base
		if i < rem {
			sh.cap++
		}
		sh.frames = make(map[PageID]*frame, sh.cap)
	}
	return bp
}

func (bp *bufferPool) shard(id PageID) *poolShard {
	return &bp.shards[uint32(id)%poolShardCount]
}

// get returns the pinned frame for a page, reading it from disk on a miss.
// The disk read happens outside every mutex; concurrent getters of the same
// page wait for the one in-flight read instead of issuing their own.
func (bp *bufferPool) get(id PageID) (*frame, error) {
	return bp.acquire(id, true)
}

// fresh returns a pinned frame for a newly allocated page without reading
// from disk. The caller formats it under the write latch.
func (bp *bufferPool) fresh(id PageID) (*frame, error) {
	return bp.acquire(id, false)
}

func (bp *bufferPool) acquire(id PageID, load bool) (*frame, error) {
	sh := bp.shard(id)
	for {
		sh.mu.Lock()
		if f, ok := sh.frames[id]; ok {
			if f.loading == nil {
				f.pins++
				f.lastUse = bp.clock.Add(1)
				sh.mu.Unlock()
				if load {
					bp.hits.Add(1)
				}
				return f, nil
			}
			// A load of this page is in flight: wait for it to finish,
			// then retry. After a failed load the map entry is gone and
			// the retry loads the page itself.
			done := f.loading
			sh.mu.Unlock()
			<-done
			continue
		}
		f := &frame{
			pg:      page{id: id, buf: make([]byte, PageSize)},
			pins:    1,
			lastUse: bp.clock.Add(1),
		}
		if load {
			f.loading = make(chan struct{})
		}
		sh.frames[id] = f
		over := len(sh.frames) > sh.cap
		sh.mu.Unlock()

		if load {
			bp.misses.Add(1)
			n, err := bp.file.ReadAt(f.pg.buf, int64(id)*PageSize)
			if n == 0 && errors.Is(err, io.EOF) {
				// A page past the end of the file reads as zeros, as a
				// hole inside it does: recovery redoes the formats of
				// pages allocated side by side in log order, not page
				// order, so it can grow the store past a page that never
				// reached the file and then redo that page.
				err = nil
			}
			sh.mu.Lock()
			if err != nil {
				// Drop the frame; waiters retry, miss the map and issue
				// their own load (getting their own error if it persists).
				delete(sh.frames, id)
				close(f.loading)
				sh.mu.Unlock()
				return nil, fmt.Errorf("store: read page %d: %w", id, err)
			}
			close(f.loading)
			f.loading = nil
			sh.mu.Unlock()
		}
		if over {
			if err := bp.evictExcess(sh); err != nil {
				bp.unpin(f, false)
				return nil, err
			}
		}
		return f, nil
	}
}

// readPage copies a page into dst (PageSize bytes) without caching it:
// scans read every page of a heap once, and sending each through the
// frames would only evict the working set. A buffered page is copied under
// its read latch. Any other page is read from the file, with a loading
// marker in the shard map for the length of the read: a getter of the page
// waits for the marker and then loads the page itself, so no write-back of
// the page can overlap the read — a page that is not buffered has nothing
// to write back, and it cannot be buffered while the marker is there. The
// copy is therefore never a torn page.
func (bp *bufferPool) readPage(id PageID, dst []byte) error {
	sh := bp.shard(id)
	for {
		sh.mu.Lock()
		if f, ok := sh.frames[id]; ok {
			if f.loading != nil {
				done := f.loading
				sh.mu.Unlock()
				<-done
				continue
			}
			f.pins++
			sh.mu.Unlock()
			bp.hits.Add(1)
			f.latch.RLock()
			copy(dst, f.pg.buf)
			f.latch.RUnlock()
			bp.unpin(f, false)
			return nil
		}
		marker := &frame{pg: page{id: id}, loading: make(chan struct{})}
		sh.frames[id] = marker
		sh.mu.Unlock()

		bp.misses.Add(1)
		_, err := bp.file.ReadAt(dst, int64(id)*PageSize)
		sh.mu.Lock()
		if sh.frames[id] == marker {
			delete(sh.frames, id)
		}
		close(marker.loading)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: read page %d: %w", id, err)
		}
		return nil
	}
}

// pin adds a pin to a frame the caller already holds pinned.
func (bp *bufferPool) pin(f *frame) {
	sh := bp.shard(f.pg.id)
	sh.mu.Lock()
	f.pins++
	sh.mu.Unlock()
}

func (bp *bufferPool) unpin(f *frame, dirty bool) {
	sh := bp.shard(f.pg.id)
	sh.mu.Lock()
	if dirty {
		f.dirty = true
	}
	if f.pins <= 0 {
		sh.mu.Unlock()
		panic("store: unpin of unpinned frame")
	}
	f.pins--
	over := len(sh.frames) > sh.cap
	sh.mu.Unlock()
	if over {
		// A shard that overflowed while its frames were pinned shrinks as
		// pins release, not only on the next miss — a hit-only steady
		// state must not hold memory past the configured budget. A failed
		// write-back leaves its pages dirty and buffered; the error
		// resurfaces on the next miss-path eviction or checkpoint.
		_ = bp.evictExcess(sh)
	}
}

// evictExcess drops least-recently-used clean, unpinned frames of a shard
// until it is back at capacity — a shard that overflowed while its frames
// were pinned shrinks again here. Dropping a clean frame needs no I/O. A
// shard with no clean unpinned frame first cleans up to writeBatch of its
// least recently used dirty unpinned frames through one write-back batch.
func (bp *bufferPool) evictExcess(sh *poolShard) error {
	for {
		sh.mu.Lock()
		if len(sh.frames) <= sh.cap {
			sh.mu.Unlock()
			return nil
		}
		var victim *frame
		var dirty []*frame
		for _, f := range sh.frames {
			// A frame being written back is pinned by its write-back.
			if f.pins != 0 || f.loading != nil {
				continue
			}
			if f.dirty {
				dirty = append(dirty, f)
			} else if victim == nil || f.lastUse < victim.lastUse {
				victim = f
			}
		}
		if victim != nil {
			delete(sh.frames, victim.pg.id)
			bp.evictions.Add(1)
			sh.mu.Unlock()
			continue
		}
		if len(dirty) == 0 {
			// Everything pinned or loading: let the shard exceed its share
			// for now.
			sh.mu.Unlock()
			return nil
		}
		slices.SortFunc(dirty, func(a, b *frame) int { return cmp.Compare(a.lastUse, b.lastUse) })
		dirty = dirty[:min(len(dirty), writeBatch)]
		for _, f := range dirty {
			f.claim()
		}
		sh.mu.Unlock()
		if err := bp.writeBackAll(dirty); err != nil {
			return err
		}
	}
}

// claim starts a write-back of a dirty frame with none in flight; the
// caller holds the shard mutex. It pins the frame, so the frame stays
// buffered until the write lands, and it clears dirty before the page is
// copied: a writer that dirties the page during the write-back keeps its
// flag, and the page is written again later. The writing marker keeps a
// second write-back of the page from starting, so an older copy can never
// land after a newer one, and lets a checkpoint wait for this one.
func (f *frame) claim() {
	f.pins++
	f.dirty = false
	f.writing = make(chan struct{})
}

// writeBackAll writes claimed frames to the data file, sorted by page:
// copy every page, flush the log once up to the newest copy's LSN, then
// write the copies. Each page is read-latched only while it is copied, so
// no latch is held across the flush or the writes.
//
// The first write-back of a page since the last checkpoint logs a full
// image of the page (redo-only, like PostgreSQL's full-page writes):
// should the 8K write tear — persist only a byte prefix — the on-disk page
// mixes two states and its LSN field cannot be trusted, so physiological
// redo alone cannot repair it. Recovery restores the image unconditionally
// and replays later records on top. The image is appended inside the same
// latch hold as the copy: a record logged between the two would otherwise
// sit below the image, which replay restores over it. Later write-backs of
// the same page need no new image: the one in the log already anchors
// replay for the whole checkpoint interval.
//
// Copying may wait for a page latch while the caller holds another (an
// inserter evicts with its tail page latched). That cannot deadlock:
// eviction claims a frame only while it is unpinned, so whoever latches
// the frame later pinned it after the evicting caller had pinned its own
// latched pages. Such a latch holder waits for a page latch only as an
// overflow-page reader, and overflow pages are never latched across an
// eviction, or as another evictor, whose claimed frames were then unpinned
// before ours were pinned — there is no cycle. The checkpoint claims
// pinned frames too, but it holds no latch while it copies.
//
// A frame whose write does not land is marked dirty again.
func (bp *bufferPool) writeBackAll(frames []*frame) error {
	if len(frames) == 0 {
		return nil
	}
	slices.SortFunc(frames, func(a, b *frame) int { return cmp.Compare(a.pg.id, b.pg.id) })
	copies := make([]byte, len(frames)*PageSize)
	var lsn uint64
	for i, f := range frames {
		c := copies[i*PageSize : (i+1)*PageSize]
		f.latch.RLock()
		copy(c, f.pg.buf)
		lsn = max(lsn, f.pg.lsn())
		bp.imagedMu.Lock()
		imaged := bp.imaged[f.pg.id]
		bp.imaged[f.pg.id] = true
		bp.imagedMu.Unlock()
		if !imaged {
			lsn = max(lsn, bp.log.append(&logRecord{typ: recFullPage, page: f.pg.id, after: c}))
		}
		f.latch.RUnlock()
	}
	// WAL rule: log first.
	if lsn > bp.log.durable() {
		bp.wbFlushes.Add(1)
	}
	err := bp.log.flush(lsn)
	written := 0
	for i, f := range frames {
		if err != nil {
			break
		}
		if _, werr := bp.file.WriteAt(copies[i*PageSize:(i+1)*PageSize], int64(f.pg.id)*PageSize); werr != nil {
			err = fmt.Errorf("store: write page %d: %w", f.pg.id, werr)
			break
		}
		written++
	}
	bp.pagesWritten.Add(uint64(written))
	for i, f := range frames {
		sh := bp.shard(f.pg.id)
		sh.mu.Lock()
		if i >= written {
			f.dirty = true // disk is stale; keep the page flushable
		}
		f.pins--
		close(f.writing)
		f.writing = nil
		sh.mu.Unlock()
	}
	return err
}

// flushPages writes back every listed page that is buffered and dirty, in
// write-back batches, and returns once each listed page's write-back — its
// own or one already in flight, which it waits for — has landed. The
// checkpoints call it: the fuzzy one with its dirty snapshot while data
// operations run beside it, the quiescent one with every dirty page. A
// page no longer buffered was evicted clean, so its bytes are on disk.
func (bp *bufferPool) flushPages(ids []PageID) error {
	ids = slices.Sorted(slices.Values(ids))
	for len(ids) > 0 {
		var batch []*frame
		var inFlight []chan struct{}
		var retry []PageID
		for len(ids) > 0 && len(batch) < writeBatch {
			id := ids[0]
			ids = ids[1:]
			sh := bp.shard(id)
			sh.mu.Lock()
			if f, ok := sh.frames[id]; ok && f.loading == nil {
				switch {
				case f.writing != nil:
					// Its copy may predate changes this caller must cover:
					// wait for it, then look at the page again.
					inFlight = append(inFlight, f.writing)
					retry = append(retry, id)
				case f.dirty:
					f.claim()
					batch = append(batch, f)
				}
			}
			sh.mu.Unlock()
		}
		if err := bp.writeBackAll(batch); err != nil {
			return err
		}
		for _, done := range inFlight {
			<-done
		}
		ids = append(retry, ids...)
	}
	return nil
}

// dirtyPages snapshots the IDs of every buffered page that is dirty or has
// a write-back in flight — every page whose buffered bytes may not be on
// disk yet. The fuzzy checkpoint calls it under the exclusive checkpoint
// fence, so the snapshot covers every page whose effects predate the
// fence.
func (bp *bufferPool) dirtyPages() []PageID {
	var pids []PageID
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if f.dirty || f.writing != nil {
				pids = append(pids, id)
			}
		}
		sh.mu.Unlock()
	}
	return pids
}

// frameCount reports how many pages are buffered.
func (bp *bufferPool) frameCount() int {
	n := 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		n += len(sh.frames)
		sh.mu.Unlock()
	}
	return n
}

// dirtyCount reports how many buffered pages are currently dirty
// (observability; racy by nature).
func (bp *bufferPool) dirtyCount() int {
	n := 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, f := range sh.frames {
			if f.dirty {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// clearImaged resets the full-page-image bookkeeping, starting a new
// image cycle. Called under the exclusive checkpoint fence — at the begin
// fence of a fuzzy checkpoint (so every image of the new cycle lands at or
// after the redo point it will publish) and after the data-file sync of a
// quiescent one — so no write-back races the reset.
func (bp *bufferPool) clearImaged() {
	bp.imagedMu.Lock()
	bp.imaged = map[PageID]bool{}
	bp.imagedMu.Unlock()
}

// dropAll discards every frame without write-back; used by crash simulation.
func (bp *bufferPool) dropAll() {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		sh.frames = make(map[PageID]*frame, sh.cap)
		sh.mu.Unlock()
	}
}
