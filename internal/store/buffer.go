package store

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The buffer pool is lock-striped: frames live in poolShardCount
// hash-partitioned maps, each guarded by its own small mutex that is only
// held for map and pin bookkeeping — never across disk I/O. Page content is
// protected by a per-frame reader/writer latch, so lookups of different
// pages (and concurrent readers of the same page) proceed fully in
// parallel, and a page being read from disk or written back blocks only the
// callers that need that very page.
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
// waits for a latched page while holding another the first thread wants.
//
// Pin protocol: pin (get/fresh) → latch → operate → unlatch → unpin. A
// pinned frame is never evicted; a frame is only latched while pinned, so
// an unpinned frame with pin count zero has no latch holders and eviction
// may write it back without taking its latch.
const poolShardCount = 16

type frameState uint8

const (
	frameReady    frameState = iota
	frameLoading             // miss: disk read in flight
	frameEvicting            // victim: WAL flush + write-back in flight
)

// frame is one buffered page. The latch guards the page bytes; the
// bookkeeping fields (pins, dirty, lastUse, state) are guarded by the
// owning shard's mutex.
type frame struct {
	pg    page
	latch sync.RWMutex

	pins    int
	dirty   bool
	lastUse uint64
	state   frameState
	ioDone  chan struct{} // closed when a load or eviction completes
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
// whose frames are all pinned or in flight grows past its share instead of
// failing — multi-page operations never dead-end on a full pool — and
// shrinks back as pins release or later misses find evictable frames.
type bufferPool struct {
	shards [poolShardCount]poolShard
	clock  atomic.Uint64
	file   File
	log    *wal

	// imaged tracks pages whose full image has been logged since the last
	// checkpoint (torn-write protection, see writeBack). Cleared by the
	// checkpoint once the data file is synced.
	imagedMu sync.Mutex
	imaged   map[PageID]bool

	hits, misses, evictions atomic.Uint64
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
			if f.state == frameReady {
				f.pins++
				f.lastUse = bp.clock.Add(1)
				sh.mu.Unlock()
				if load {
					bp.hits.Add(1)
				}
				return f, nil
			}
			// A load or eviction of this page is in flight: wait for it to
			// finish, then retry. After a completed eviction the map entry
			// is gone and the retry reloads from disk; after a failed
			// eviction the frame is ready again.
			done := f.ioDone
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
			f.state = frameLoading
			f.ioDone = make(chan struct{})
		}
		sh.frames[id] = f
		over := len(sh.frames) > sh.cap
		sh.mu.Unlock()

		if load {
			bp.misses.Add(1)
			_, err := bp.file.ReadAt(f.pg.buf, int64(id)*PageSize)
			sh.mu.Lock()
			if err != nil {
				// Drop the frame; waiters on ioDone retry, miss the map and
				// issue their own load (getting their own error if it
				// persists).
				delete(sh.frames, id)
				close(f.ioDone)
				sh.mu.Unlock()
				return nil, fmt.Errorf("store: read page %d: %w", id, err)
			}
			f.state = frameReady
			close(f.ioDone)
			f.ioDone = nil
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
			if f.state != frameReady {
				done := f.ioDone
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
		marker := &frame{pg: page{id: id}, state: frameLoading, ioDone: make(chan struct{})}
		sh.frames[id] = marker
		sh.mu.Unlock()

		bp.misses.Add(1)
		_, err := bp.file.ReadAt(dst, int64(id)*PageSize)
		sh.mu.Lock()
		if sh.frames[id] == marker {
			delete(sh.frames, id)
		}
		close(marker.ioDone)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("store: read page %d: %w", id, err)
		}
		return nil
	}
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
		// write-back leaves the victim dirty and in the map; the error
		// resurfaces on the next miss-path eviction or checkpoint.
		_ = bp.evictExcess(sh)
	}
}

// evictExcess writes back and drops least-recently-used evictable frames of
// a shard until it is back at capacity — a shard that overflowed while its
// frames were pinned shrinks again here. Each victim is marked
// frameEvicting under the shard mutex — so no getter can pin it — and its
// I/O runs with the mutex released. Victims have pin count zero, hence no
// latch holders, so their bytes are stable.
func (bp *bufferPool) evictExcess(sh *poolShard) error {
	for {
		sh.mu.Lock()
		if len(sh.frames) <= sh.cap {
			sh.mu.Unlock()
			return nil
		}
		var victim *frame
		for _, f := range sh.frames {
			if f.pins != 0 || f.state != frameReady {
				continue
			}
			if victim == nil || f.lastUse < victim.lastUse {
				victim = f
			}
		}
		if victim == nil {
			// Everything pinned or in flight: let the shard exceed its
			// share for now.
			sh.mu.Unlock()
			return nil
		}
		victim.state = frameEvicting
		victim.ioDone = make(chan struct{})
		dirty := victim.dirty
		sh.mu.Unlock()

		var err error
		if dirty {
			err = bp.writeBack(victim)
		}
		sh.mu.Lock()
		if err == nil {
			victim.dirty = false
			delete(sh.frames, victim.pg.id)
			bp.evictions.Add(1)
		}
		victim.state = frameReady
		close(victim.ioDone)
		victim.ioDone = nil
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// writeBack flushes the WAL up to the page's LSN, then writes the page.
// The read latch keeps the bytes stable against concurrent writers: it is
// free for eviction victims (pin count zero ⇒ no latch holders) and guards
// the checkpoint path, which may run next to late writers.
//
// The first write-back of a page since the last checkpoint logs a full
// image of the page first (redo-only, like PostgreSQL's full-page writes):
// should the 8K write below tear — persist only a byte prefix — the
// on-disk page mixes two states and its LSN field cannot be trusted, so
// physiological redo alone cannot repair it. Recovery restores the image
// unconditionally and replays later records on top. Subsequent write-backs
// of the same page need no new image: the one in the log already anchors
// replay for the whole checkpoint interval.
func (bp *bufferPool) writeBack(f *frame) error {
	f.latch.RLock()
	defer f.latch.RUnlock()
	lsn := f.pg.lsn()
	bp.imagedMu.Lock()
	imaged := bp.imaged[f.pg.id]
	if !imaged {
		bp.imaged[f.pg.id] = true
	}
	bp.imagedMu.Unlock()
	if !imaged {
		img := &logRecord{typ: recFullPage, page: f.pg.id,
			after: append([]byte(nil), f.pg.buf...)}
		lsn = bp.log.append(img)
	}
	// WAL rule: log first.
	if err := bp.log.flush(lsn); err != nil {
		return err
	}
	if _, err := bp.file.WriteAt(f.pg.buf, int64(f.pg.id)*PageSize); err != nil {
		return fmt.Errorf("store: write page %d: %w", f.pg.id, err)
	}
	return nil
}

// flushAll writes back every dirty page (checkpoint). The store quiesces
// transactions first, so no frame is being re-dirtied while we run; each
// frame is pinned across its write-back so eviction cannot race it. A
// dirty frame whose eviction is in flight is WAITED on, not skipped: the
// checkpoint's data-file sync must cover that eviction's write, or
// truncating the WAL would discard the only durable copy of its changes.
func (bp *bufferPool) flushAll() error {
	for i := range bp.shards {
		sh := &bp.shards[i]
		for {
			sh.mu.Lock()
			var f *frame
			var evicting chan struct{}
			for _, c := range sh.frames {
				if c.state == frameEvicting && c.dirty {
					evicting = c.ioDone
					break
				}
				if c.state == frameReady && c.dirty {
					f = c
					break
				}
			}
			if evicting != nil {
				sh.mu.Unlock()
				<-evicting
				continue
			}
			if f == nil {
				sh.mu.Unlock()
				break
			}
			f.pins++
			// Claim the current mutation set before writing: a writer that
			// re-dirties the page during the write-back keeps its flag
			// instead of having it clobbered afterward.
			f.dirty = false
			sh.mu.Unlock()
			err := bp.writeBack(f)
			sh.mu.Lock()
			if err != nil {
				f.dirty = true // disk is stale; keep the page flushable
			}
			f.pins--
			sh.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// dirtyPages snapshots the IDs of every dirty buffered page. The fuzzy
// checkpoint calls it under the exclusive checkpoint fence — in-flight data
// operations are drained, and evictions only run inside data operations, so
// no frame is mid-eviction and the snapshot is the complete set of pages
// whose effects predate the fence and are not yet on disk.
func (bp *bufferPool) dirtyPages() []PageID {
	var pids []PageID
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for id, f := range sh.frames {
			if f.dirty {
				pids = append(pids, id)
			}
		}
		sh.mu.Unlock()
	}
	return pids
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

// flushPage writes back one page if it is still buffered and dirty,
// following flushAll's claim protocol. The fuzzy checkpoint calls it with
// data operations running concurrently: a frame mid-eviction is waited on
// (its write must land before the checkpoint's data sync), a frame already
// evicted or clean needs nothing, and a writer re-dirtying the page during
// the write-back keeps its flag for the next cycle.
func (bp *bufferPool) flushPage(id PageID) error {
	sh := bp.shard(id)
	for {
		sh.mu.Lock()
		f, ok := sh.frames[id]
		if !ok {
			// Evicted since the snapshot: the eviction's write-back already
			// put the bytes on disk (or its failure left the frame in the
			// map, so we would have found it).
			sh.mu.Unlock()
			return nil
		}
		if f.state != frameReady {
			done := f.ioDone
			sh.mu.Unlock()
			<-done
			continue
		}
		if !f.dirty {
			sh.mu.Unlock()
			return nil
		}
		f.pins++
		// Claim the current mutation set before writing, as in flushAll.
		f.dirty = false
		sh.mu.Unlock()
		err := bp.writeBack(f)
		sh.mu.Lock()
		if err != nil {
			f.dirty = true // disk is stale; keep the page flushable
		}
		f.pins--
		sh.mu.Unlock()
		return err
	}
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
