package store

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBufferPoolEvictsLeastRecentlyUsed pins the eviction order of one pool
// shard: a hit protects a frame, the victim of a miss is the least recently
// used clean frame that is not pinned, and a shard with no clean frame
// writes back its oldest dirty frames, at most writeBatch, and then evicts
// the oldest of them.
func TestBufferPoolEvictsLeastRecentlyUsed(t *testing.T) {
	const perShard = writeBatch + 8
	opts := DefaultOptions()
	opts.BufferPages = poolShardCount * perShard
	opts.SyncCommits = false
	s := openTemp(t, opts)
	h, err := s.CreateHeap("h")
	if err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	for s.Stats().PageCount < (perShard+4)*poolShardCount {
		if _, err := tx.Insert(h, bytes.Repeat([]byte("r"), 3000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Every page on disk, none buffered.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.pool.dropAll()

	sh := &s.pool.shards[0]
	ids := make([]PageID, perShard+3) // data pages of shard 0, in file order
	for i := range ids {
		ids[i] = PageID((i + 1) * poolShardCount)
	}
	touch := func(id PageID, dirty bool) {
		t.Helper()
		f, err := s.pool.get(id)
		if err != nil {
			t.Fatal(err)
		}
		s.pool.unpin(f, dirty)
	}
	buffered := func(id PageID) (resident, dirty bool) {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		f, ok := sh.frames[id]
		return ok, ok && f.dirty
	}
	for _, id := range ids[:perShard] {
		touch(id, false)
	}

	// A hit protects the oldest frame: the miss evicts the next oldest.
	touch(ids[0], false)
	touch(ids[perShard], false)
	if in, _ := buffered(ids[0]); !in {
		t.Fatal("a frame hit just before the miss was evicted")
	}
	if in, _ := buffered(ids[1]); in {
		t.Fatal("the least recently used clean frame survived the miss")
	}

	// A pinned frame is passed over: ids[2] is now the oldest.
	pinned, err := s.pool.get(ids[2])
	if err != nil {
		t.Fatal(err)
	}
	touch(ids[perShard+1], false)
	if in, _ := buffered(ids[2]); !in {
		t.Fatal("a pinned frame was evicted")
	}
	if in, _ := buffered(ids[3]); in {
		t.Fatal("the least recently used unpinned frame survived the miss")
	}
	s.pool.unpin(pinned, false)

	// No clean frame: dirty every buffered page, oldest first in this order.
	var order []PageID
	for _, id := range ids {
		if in, _ := buffered(id); in {
			order = append(order, id)
			touch(id, true)
		}
	}
	if len(order) != perShard {
		t.Fatalf("%d frames buffered in the shard, want %d", len(order), perShard)
	}
	before := s.pool.pagesWritten.Load()
	touch(ids[perShard+2], false)
	if n := s.pool.pagesWritten.Load() - before; n != writeBatch {
		t.Fatalf("the miss wrote back %d pages, want writeBatch = %d", n, writeBatch)
	}
	if in, _ := buffered(order[0]); in {
		t.Fatal("the oldest frame, written back, was not the victim")
	}
	for i, id := range order[1:] {
		in, dirty := buffered(id)
		if !in {
			t.Fatalf("frame %d of %d was evicted", i+1, len(order))
		}
		if want := i+1 >= writeBatch; dirty != want {
			t.Fatalf("frame %d of %d (oldest first): dirty %v, want %v", i+1, len(order), dirty, want)
		}
	}
}

// TestColdReadReusesPageBuffers: a miss reads its page into the buffer of
// a frame evicted before, so steady cold reads through a 16-page pool over
// a heap of 200 pages allocate far less than a page per miss. A recycled
// buffer carries no old bytes into a page: a page past the end of the file
// reads as zeros, and a freshly formatted page reaches the disk with zeros
// between its slots and its records, as on a new buffer.
func TestColdReadReusesPageBuffers(t *testing.T) {
	opts := DefaultOptions()
	opts.BufferPages = 16
	opts.SyncCommits = false
	s := openTemp(t, opts)
	// One 7000-byte filler and one small record per page: reading the small
	// ones misses on every page and copies out only a few bytes.
	h, err := s.CreateHeap("h")
	if err != nil {
		t.Fatal(err)
	}
	filler := bytes.Repeat([]byte{0xAA}, 7000)
	var small []RID
	tx := s.Begin()
	for i := 0; s.Stats().PageCount < 200; i++ {
		if _, err := tx.Insert(h, filler); err != nil {
			t.Fatal(err)
		}
		rid, err := tx.Insert(h, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		small = append(small, rid)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if small[0].Page == small[len(small)-1].Page {
		t.Fatal("the small records share a page")
	}
	readAll := func() {
		t.Helper()
		for i, rid := range small {
			got, err := s.Read(rid)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != byte(i) {
				t.Fatalf("record %d read %x", i, got)
			}
		}
	}
	readAll() // warm: every shard's spare buffers are in use

	misses := s.Stats().BufferMisses
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const passes = 3
	for range passes {
		readAll()
	}
	runtime.ReadMemStats(&after)
	n := s.Stats().BufferMisses - misses
	if n < uint64(passes*len(small))*9/10 {
		t.Fatalf("%d misses for %d cold reads", n, passes*len(small))
	}
	if perMiss := (after.TotalAlloc - before.TotalAlloc) / n; perMiss > PageSize/4 {
		t.Fatalf("cold reads allocated %d bytes per miss, want well under a page (%d)", perMiss, PageSize)
	}

	t.Run("past-eof-reads-zeros", func(t *testing.T) {
		f, err := s.pool.get(PageID(s.Stats().PageCount + poolShardCount))
		if err != nil {
			t.Fatal(err)
		}
		zero := bytes.Count(f.pg.buf, []byte{0}) == PageSize
		s.pool.unpin(f, false)
		if !zero {
			t.Fatal("a page past the end of the file read old bytes")
		}
	})

	t.Run("fresh-page-bytes", func(t *testing.T) {
		h2, err := s.CreateHeap("h2")
		if err != nil {
			t.Fatal(err)
		}
		tx := s.Begin()
		rid, err := tx.Insert(h2, []byte("fresh"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(s.dir, dataFileName))
		if err != nil {
			t.Fatal(err)
		}
		pg := page{id: rid.Page, buf: data[int(rid.Page)*PageSize : int(rid.Page+1)*PageSize]}
		if got, ok := pg.read(rid.Slot); !ok || !bytes.HasSuffix(got, []byte("fresh")) {
			t.Fatalf("page %d on disk holds %q", rid.Page, got)
		}
		for i, b := range pg.buf[pg.freeStart():pg.freeEnd()] {
			if b != 0 {
				t.Fatalf("fresh page %d holds byte %#x at %d, between its slots and its records", rid.Page, b, int(pg.freeStart())+i)
			}
		}
	})
}
