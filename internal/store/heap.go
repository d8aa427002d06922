package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Record heaps store variable-length records in chained pages. Records
// larger than a page spill into overflow chains; the inline part keeps a
// small prefix of the payload so that fixed headers (the message status
// byte of the message store) remain updatable in place.
//
// Concurrency: every page access follows the pin→latch protocol of the
// buffer pool. Reads latch one page at a time and run fully in parallel.
// Inserts serialize per heap on the append lock — only the tail page is
// ever write-latched under it — so inserts into different heaps, and reads
// anywhere, never contend. The WAL append for a page mutation happens while
// the page's write latch is held, which keeps the page LSN monotonic in log
// order per page: a written-back page LSN >= r.lsn implies r's effect is on
// disk, the invariant redo relies on.
//
// Inline record encodings:
//
//	plain:    [0][payload...]
//	overflow: [1][firstOvPage u32][totalLen u32][prefix...]
const (
	recKindPlain    = 0
	recKindOverflow = 1

	overflowHeader = 1 + 4 + 4
	overflowPrefix = 256 // payload bytes kept inline
	// inline payload limit for plain records, leaving slack for the slot
	inlineMax = maxRecordSize - 1
	// chunk capacity of one overflow page
	ovChunkMax = maxRecordSize
)

// inline is a decoded inline record header.
type inline struct {
	overflow bool
	payload  []byte // a plain record's payload, an overflow record's prefix
	head     PageID // overflow only: the first chunk page
	total    int    // overflow only: the full payload length
}

// decodeInline decodes an inline record's header; ok is false when rec is
// neither a plain nor an overflow record.
func decodeInline(rec []byte) (in inline, ok bool) {
	switch {
	case len(rec) >= 1 && rec[0] == recKindPlain:
		return inline{payload: rec[1:]}, true
	case len(rec) >= overflowHeader && rec[0] == recKindOverflow:
		return inline{
			overflow: true,
			payload:  rec[overflowHeader:],
			head:     PageID(binary.LittleEndian.Uint32(rec[1:])),
			total:    int(binary.LittleEndian.Uint32(rec[5:])),
		}, true
	}
	return inline{}, false
}

// errRecordNotFound marks reads of dead or vanished slots; scans skip such
// records instead of failing when retention deletes race them.
var errRecordNotFound = errors.New("record not found")

// HeapID identifies a record heap.
type HeapID uint32

// heapByID resolves a heap descriptor.
func (s *Store) heapByID(id uint32) (*heapInfo, error) {
	s.heapMu.RLock()
	h, ok := s.heaps[id]
	s.heapMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("store: unknown heap %d", id)
	}
	return h, nil
}

// CreateHeap registers a new heap (auto-committed DDL). Creating an
// existing name returns its existing ID. DDL serializes on the catalog
// write lock; it is rare and never on the message path.
func (s *Store) CreateHeap(name string) (HeapID, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.heapMu.Lock()
	defer s.heapMu.Unlock()
	if id, ok := s.heapNames[name]; ok {
		return HeapID(id), nil
	}
	t := s.beginTxn()
	id := s.nextHeap
	s.nextHeap++
	first, err := s.allocPage(t, 0, InvalidPage, InvalidPage)
	if err != nil {
		return 0, err
	}
	firstID := first.pg.id
	s.pool.unpin(first, true)

	entry := make([]byte, 10+len(name))
	binary.LittleEndian.PutUint32(entry[0:], id)
	binary.LittleEndian.PutUint32(entry[4:], uint32(firstID))
	binary.LittleEndian.PutUint16(entry[8:], uint16(len(name)))
	copy(entry[10:], name)
	if _, err := s.insertHeap(t, s.heaps[catalogHeapID], entry); err != nil {
		return 0, err
	}
	if err := s.commitTxn(t); err != nil {
		return 0, err
	}
	s.heaps[id] = &heapInfo{id: id, name: name, first: firstID, last: firstID}
	s.heapNames[name] = id
	return HeapID(id), nil
}

// Heap returns the ID of an existing heap.
func (s *Store) Heap(name string) (HeapID, bool) {
	s.heapMu.RLock()
	defer s.heapMu.RUnlock()
	id, ok := s.heapNames[name]
	return HeapID(id), ok
}

// HeapNames lists all user heaps.
func (s *Store) HeapNames() []string {
	s.heapMu.RLock()
	defer s.heapMu.RUnlock()
	var out []string
	for name := range s.heapNames {
		out = append(out, name)
	}
	return out
}

// insertHeap appends a record to a heap within an open transaction.
// Overflow chains are built first — outside the append lock, so large
// payloads don't stall other inserters longer than their tail-page write —
// then the append lock is taken to place the inline record on the tail.
func (s *Store) insertHeap(t *Txn, h *heapInfo, payload []byte) (RID, error) {
	var rec []byte
	if len(payload)+1 <= inlineMax {
		rec = make([]byte, 1+len(payload))
		rec[0] = recKindPlain
		copy(rec[1:], payload)
	} else {
		// Spill: inline prefix + overflow chain for the remainder. The
		// chain pages are unreachable by other threads until the inline
		// record pointing at them is published below.
		prefix := payload[:overflowPrefix]
		rest := payload[overflowPrefix:]
		// Build the chain back to front so each page's next is known when
		// it is formatted.
		nChunks := (len(rest) + ovChunkMax - 1) / ovChunkMax
		next := InvalidPage
		var first PageID
		for i := nChunks - 1; i >= 0; i-- {
			lo := i * ovChunkMax
			hi := lo + ovChunkMax
			if hi > len(rest) {
				hi = len(rest)
			}
			f, err := s.allocPage(t, flagOverflow, InvalidPage, next)
			if err != nil {
				return NilRID, err
			}
			f.latch.Lock()
			slot := f.pg.insert(rest[lo:hi])
			lsn := s.log.append(&logRecord{typ: recInsert, txn: t.id, prevLSN: t.lastLSN,
				heap: h.id, page: f.pg.id, slot: slot, after: append([]byte(nil), rest[lo:hi]...)})
			t.lastLSN = lsn
			f.pg.setLSN(lsn)
			f.latch.Unlock()
			next = f.pg.id
			first = f.pg.id
			s.pool.unpin(f, true)
		}
		rec = make([]byte, overflowHeader+len(prefix))
		rec[0] = recKindOverflow
		binary.LittleEndian.PutUint32(rec[1:], uint32(first))
		binary.LittleEndian.PutUint32(rec[5:], uint32(len(payload)))
		copy(rec[overflowHeader:], prefix)
	}

	// Append to the tail page; extend the chain if needed. Only the tail is
	// latched under the append lock.
	h.appendMu.Lock()
	defer h.appendMu.Unlock()
	tail, err := s.pool.get(h.last)
	if err != nil {
		return NilRID, err
	}
	tail.latch.Lock()
	if !tail.pg.canFit(len(rec)) {
		nf, err := s.allocPage(t, 0, tail.pg.id, InvalidPage)
		if err != nil {
			tail.latch.Unlock()
			s.pool.unpin(tail, false)
			return NilRID, err
		}
		lsn := s.log.append(&logRecord{typ: recChain, txn: t.id, prevLSN: t.lastLSN, page: tail.pg.id, page2: nf.pg.id})
		t.lastLSN = lsn
		tail.pg.setNext(nf.pg.id)
		tail.pg.setLSN(lsn)
		tail.latch.Unlock()
		s.pool.unpin(tail, true)
		h.last = nf.pg.id
		tail = nf
		tail.latch.Lock()
	}
	slot := tail.pg.insert(rec)
	rid := RID{Page: tail.pg.id, Slot: slot}
	lr := &logRecord{typ: recInsert, txn: t.id, prevLSN: t.lastLSN,
		heap: h.id, page: rid.Page, slot: slot, after: append([]byte(nil), rec...)}
	lsn := s.log.append(lr)
	t.lastLSN = lsn
	tail.pg.setLSN(lsn)
	tail.latch.Unlock()
	s.pool.unpin(tail, true)
	t.undoRecs = append(t.undoRecs, lr)
	return rid, nil
}

// Insert appends a record to the heap within the transaction.
func (t *Txn) Insert(h HeapID, payload []byte) (RID, error) {
	t.s.ckptMu.RLock()
	defer t.s.ckptMu.RUnlock()
	if err := t.ensureActive(); err != nil {
		return NilRID, err
	}
	hi, err := t.s.heapByID(uint32(h))
	if err != nil {
		return NilRID, err
	}
	return t.s.insertHeap(t, hi, payload)
}

// readRecord reassembles a record, following overflow chains. Each page is
// pinned and read-latched individually; no shared lock is held, so reads of
// distinct records — and of the same record — run fully in parallel.
//
// The record page's read latch is held across the entire overflow walk.
// That is what keeps the chain alive: every path that frees a chain
// (commit of a Delete, BatchDelete, undo of an overflow insert) first kills
// the inline record's slot under the record page's WRITE latch, so a
// reader that saw a live slot under the read latch fences all frees of the
// chain it is following until it finishes. Chain-page latches are acquired
// below the record page's latch, which the hierarchy permits: overflow
// pages are leaves that never wait on record pages.
func (s *Store) readRecord(rid RID) ([]byte, error) {
	f, err := s.pool.get(rid.Page)
	if err != nil {
		return nil, err
	}
	f.latch.RLock()
	defer func() {
		f.latch.RUnlock()
		s.pool.unpin(f, false)
	}()
	rec, ok := f.pg.read(rid.Slot)
	if !ok {
		return nil, fmt.Errorf("store: %w: %s", errRecordNotFound, rid)
	}
	in, ok := decodeInline(rec)
	switch {
	case !ok:
		return nil, fmt.Errorf("store: record %s has no valid inline header", rid)
	case !in.overflow:
		out := make([]byte, len(in.payload))
		copy(out, in.payload)
		return out, nil
	}
	total := in.total
	s.allocMu.Lock()
	size := int(s.pageCount) * PageSize
	s.allocMu.Unlock()
	if total > size {
		return nil, fmt.Errorf("store: overflow record %s claims %d bytes, more than the data file holds", rid, total)
	}
	out := make([]byte, 0, total)
	out = append(out, in.payload...)
	for pid := in.head; pid != InvalidPage; {
		of, err := s.pool.get(pid)
		if err != nil {
			return nil, err
		}
		of.latch.RLock()
		chunk, ok := of.pg.read(0)
		if !ok {
			of.latch.RUnlock()
			s.pool.unpin(of, false)
			return nil, fmt.Errorf("store: missing overflow chunk on page %d", pid)
		}
		out = append(out, chunk...)
		next := of.pg.next()
		of.latch.RUnlock()
		s.pool.unpin(of, false)
		if len(out) > total {
			break // a corrupt chain; the length check below names it
		}
		pid = next
	}
	if len(out) != total {
		return nil, fmt.Errorf("store: overflow record %s length %d, want %d", rid, len(out), total)
	}
	return out, nil
}

// Read returns a record's payload (transactions see committed state plus
// their own writes; isolation is enforced by the lock layer above).
func (s *Store) Read(rid RID) ([]byte, error) {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	return s.readRecord(rid)
}

// Delete removes a record within the transaction. Overflow chains are
// released at commit (never on abort), so undo can restore the record.
func (t *Txn) Delete(h HeapID, rid RID) error {
	t.s.ckptMu.RLock()
	defer t.s.ckptMu.RUnlock()
	if err := t.ensureActive(); err != nil {
		return err
	}
	return t.s.deleteRecord(t, uint32(h), rid)
}

func (s *Store) deleteRecord(t *Txn, heap uint32, rid RID) error {
	f, err := s.pool.get(rid.Page)
	if err != nil {
		return err
	}
	f.latch.Lock()
	rec, ok := f.pg.read(rid.Slot)
	if !ok {
		f.latch.Unlock()
		s.pool.unpin(f, false)
		return fmt.Errorf("store: %w: %s", errRecordNotFound, rid)
	}
	before := append([]byte(nil), rec...)
	if rec[0] == recKindOverflow {
		first := PageID(binary.LittleEndian.Uint32(rec[1:]))
		t.freeOnCommit = append(t.freeOnCommit, s.chainPages(first)...)
	}
	f.pg.del(rid.Slot)
	lr := &logRecord{typ: recDelete, txn: t.id, prevLSN: t.lastLSN,
		heap: heap, page: rid.Page, slot: rid.Slot, before: before}
	lsn := s.log.append(lr)
	t.lastLSN = lsn
	f.pg.setLSN(lsn)
	f.latch.Unlock()
	s.pool.unpin(f, true)
	t.undoRecs = append(t.undoRecs, lr)
	return nil
}

// chainPages collects the page IDs of an overflow chain. It may be called
// with the owning record's page write-latched; overflow pages are leaves of
// the latch order and never wait on record pages.
func (s *Store) chainPages(first PageID) []PageID {
	var out []PageID
	for pid := first; pid != InvalidPage; {
		f, err := s.pool.get(pid)
		if err != nil {
			break
		}
		f.latch.RLock()
		next := f.pg.next()
		f.latch.RUnlock()
		out = append(out, pid)
		s.pool.unpin(f, false)
		pid = next
	}
	return out
}

// SetByte updates one byte of a record's payload in place. Only offsets
// within the inline prefix are valid; the message store keeps its status
// byte at offset 0. This is the only in-place mutation of message data —
// everything else is append-only, as the paper prescribes.
func (t *Txn) SetByte(rid RID, off int, val byte) error {
	t.s.ckptMu.RLock()
	defer t.s.ckptMu.RUnlock()
	if err := t.ensureActive(); err != nil {
		return err
	}
	s := t.s
	f, err := s.pool.get(rid.Page)
	if err != nil {
		return err
	}
	f.latch.Lock()
	defer func() {
		f.latch.Unlock()
		s.pool.unpin(f, true)
	}()
	rec, ok := f.pg.read(rid.Slot)
	if !ok {
		return fmt.Errorf("store: %w: %s", errRecordNotFound, rid)
	}
	physOff := 1 + off // skip kind byte
	if rec[0] == recKindOverflow {
		physOff = overflowHeader + off
	}
	if physOff >= len(rec) {
		return fmt.Errorf("store: SetByte offset %d out of range", off)
	}
	before := []byte{rec[physOff]}
	rec[physOff] = val
	lr := &logRecord{typ: recSetBytes, txn: t.id, prevLSN: t.lastLSN,
		page: rid.Page, slot: rid.Slot, off: uint16(physOff), before: before, after: []byte{val}}
	lsn := s.log.append(lr)
	t.lastLSN = lsn
	f.pg.setLSN(lsn)
	t.undoRecs = append(t.undoRecs, lr)
	return nil
}

// Scan iterates all live records of a heap in storage order (which, for
// append-only queue heaps, is insertion order). fn returns false to stop.
//
// Scan reads each chain page once into a private buffer, outside the
// buffer pool's frames (bufferPool.readPage), and sees each page as of one
// instant. The precondition is the callback's: payload aliases that buffer
// and is valid only until fn returns — a caller that keeps the bytes
// copies them. The chain lock is held shared for the walk, so retention
// reclaim cannot unlink pages out from under the scanner; concurrent
// inserts and reads proceed normally, and records inserted into a page
// after the scanner copied it are not seen.
func (s *Store) Scan(h HeapID, fn func(rid RID, payload []byte) bool) error {
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	hi, err := s.heapByID(uint32(h))
	if err != nil {
		return err
	}
	return s.scanHeap(hi, fn)
}

func (s *Store) scanHeap(h *heapInfo, fn func(rid RID, payload []byte) bool) error {
	h.chainMu.RLock()
	defer h.chainMu.RUnlock()
	pg := page{buf: make([]byte, PageSize)}
	for pid := h.first; pid != InvalidPage; pid = pg.next() {
		pg.id = pid
		if err := s.pool.readPage(pid, pg.buf); err != nil {
			return err
		}
		for slot := uint16(0); slot < pg.slotCount(); slot++ {
			rec, ok := pg.read(slot)
			if !ok {
				continue
			}
			rid := RID{Page: pid, Slot: slot}
			in, ok := decodeInline(rec)
			if !ok {
				return fmt.Errorf("store: record %s has no valid inline header", rid)
			}
			payload := in.payload
			if in.overflow {
				var err error
				payload, err = s.readRecord(rid)
				if errors.Is(err, errRecordNotFound) {
					continue // deleted since the page was copied
				}
				if err != nil {
					return err
				}
			}
			if !fn(rid, payload) {
				return nil
			}
		}
	}
	return nil
}

// BatchDelete physically removes a set of processed records in one
// auto-committed transaction: Begin, Txn.BatchDelete, Commit.
func (s *Store) BatchDelete(h HeapID, rids []RID) error {
	if len(rids) == 0 {
		return nil
	}
	t := s.Begin()
	if err := t.BatchDelete(h, rids); err != nil {
		t.Abort()
		return err
	}
	return t.Commit()
}

// BatchDelete stages the physical removal of a set of processed records into
// the transaction. With Options.UnloggedDeletes it writes one redo-only
// record per page, without before images — the paper's retention-based
// deletion optimization (Sec. 4.1); otherwise each record is deleted with a
// full before image (experiment E3's baseline). Records already gone are
// skipped. Redo-only deletes cannot be rolled back and replay from any
// durable prefix of the log, so their order in the transaction is the order
// a crash may keep them in. Commit, once the transaction is durable, frees
// the overflow pages of the deleted records and unlinks and frees the pages
// they emptied (other than heap head and tail pages).
func (t *Txn) BatchDelete(h HeapID, rids []RID) error {
	if len(rids) == 0 {
		return nil
	}
	s := t.s
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	if t.done {
		return ErrTxnDone
	}
	hi, err := s.heapByID(uint32(h))
	if err != nil {
		return err
	}
	if !slices.Contains(t.reclaim, hi) {
		t.reclaim = append(t.reclaim, hi)
	}
	if !s.opts.UnloggedDeletes {
		if err := t.ensureActive(); err != nil {
			return err
		}
		for _, rid := range rids {
			if err := s.deleteRecord(t, hi.id, rid); err != nil && !errors.Is(err, errRecordNotFound) {
				return err
			}
		}
		return nil
	}
	// One redo-only record per page, appended under that page's write latch.
	// A single out-of-band record for the whole batch would break the
	// per-page LSN invariant: if a later insert reused a dead slot and its
	// higher LSN reached disk, recovery would replay the batch delete over
	// the newer record (the insert's own redo being LSN-masked) and lose it.
	// Per-page append-under-latch keeps page LSNs monotonic in log order, so
	// the standard redo guard applies. Redo-only records need no begin
	// record: nothing is undone, and a checkpoint that passes them has
	// written back the pages they changed.
	var pageOrder []PageID
	byPage := map[PageID][]RID{}
	for _, rid := range rids {
		if _, ok := byPage[rid.Page]; !ok {
			pageOrder = append(pageOrder, rid.Page)
		}
		byPage[rid.Page] = append(byPage[rid.Page], rid)
	}
	for _, pid := range pageOrder {
		ov, err := s.applyUnloggedDeletes(t, pid, byPage[pid])
		if err != nil {
			return err
		}
		t.freeAfterCommit = append(t.freeAfterCommit, ov...)
	}
	return nil
}

// releaseDeleted frees what a committed transaction's batch deletes left
// behind: the overflow chains of the records and the pages they emptied.
// It runs once the commit is durable — an emptied page must not be reused
// while a loser's logged delete (E3) could still be undone into it.
func (s *Store) releaseDeleted(t *Txn) error {
	if len(t.reclaim) == 0 {
		return nil
	}
	s.ckptMu.RLock()
	defer s.ckptMu.RUnlock()
	s.freePages(t.freeAfterCommit)
	t.freeAfterCommit = nil
	for _, hi := range t.reclaim {
		if err := s.reclaimEmptyPages(hi); err != nil {
			return err
		}
	}
	t.reclaim = nil
	return nil
}

// applyUnloggedDeletes kills a batch of slots of ONE page: the redo-only
// record is appended while the page's write latch is held, like every other
// page mutation, so the page LSN stays monotonic in log order and redo can
// use the standard LSN guard. Returns overflow pages to free.
func (s *Store) applyUnloggedDeletes(t *Txn, pid PageID, rids []RID) ([]PageID, error) {
	f, err := s.pool.get(pid)
	if err != nil {
		return nil, err
	}
	f.latch.Lock()
	defer func() {
		f.latch.Unlock()
		s.pool.unpin(f, true)
	}()
	lr := &logRecord{typ: recBatchDelete, txn: t.id, prevLSN: t.lastLSN, rids: rids}
	lsn := s.log.append(lr)
	t.lastLSN = lsn
	var ov []PageID
	for _, rid := range rids {
		rec, ok := f.pg.read(rid.Slot)
		if !ok {
			continue // already gone; idempotent
		}
		if rec[0] == recKindOverflow {
			first := PageID(binary.LittleEndian.Uint32(rec[1:]))
			ov = append(ov, s.chainPages(first)...)
		}
		f.pg.del(rid.Slot)
	}
	if lsn > f.pg.lsn() {
		f.pg.setLSN(lsn)
	}
	return ov, nil
}

// applyPhysicalDelete marks a slot dead and returns overflow pages to free;
// recovery redo uses it to replay recBatchDelete records.
func (s *Store) applyPhysicalDelete(rid RID, lsn uint64) ([]PageID, error) {
	f, err := s.pool.get(rid.Page)
	if err != nil {
		return nil, err
	}
	f.latch.Lock()
	defer func() {
		f.latch.Unlock()
		s.pool.unpin(f, true)
	}()
	rec, ok := f.pg.read(rid.Slot)
	if !ok {
		return nil, nil // already gone; idempotent
	}
	var ov []PageID
	if rec[0] == recKindOverflow {
		first := PageID(binary.LittleEndian.Uint32(rec[1:]))
		ov = s.chainPages(first)
	}
	f.pg.del(rid.Slot)
	if lsn > f.pg.lsn() {
		f.pg.setLSN(lsn)
	}
	return ov, nil
}

// freePages marks pages free (redo-only logged) and returns them to the
// allocator.
func (s *Store) freePages(pages []PageID) {
	var freed []PageID
	for _, pid := range pages {
		// fresh, not get: the content is formatted over immediately, so an
		// evicted page must not pay a disk read to be freed.
		f, err := s.pool.fresh(pid)
		if err != nil {
			continue
		}
		f.latch.Lock()
		lsn := s.log.append(&logRecord{typ: recSetFlags, page: pid, flags: flagFree})
		f.pg.format()
		f.pg.setFlags(flagFree)
		f.pg.setLSN(lsn)
		f.latch.Unlock()
		s.pool.unpin(f, true)
		freed = append(freed, pid)
	}
	if len(freed) > 0 {
		s.allocMu.Lock()
		s.freeList = append(s.freeList, freed...)
		s.allocMu.Unlock()
	}
}

// reclaimBatchPages bounds how many chain pages one exclusive chain-lock
// acquisition examines during reclaim.
const reclaimBatchPages = 64

// reclaimEmptyPages unlinks fully-empty interior pages of a heap chain and
// frees them; head and tail pages stay to keep insertion cheap. The chain
// lock is held exclusively only for one bounded batch at a time — between
// batches scanners proceed, so slice scans never stall behind a reclaim
// walking a long chain. The walk resumes from the last kept page: only
// reclaim unlinks pages (reclaimMu serializes reclaimers) and appends grow
// the chain strictly at the tail, so the resume cursor stays valid across
// the lock release.
func (s *Store) reclaimEmptyPages(h *heapInfo) error {
	h.reclaimMu.Lock()
	defer h.reclaimMu.Unlock()

	prev := h.first
	for {
		h.appendMu.Lock()
		last := h.last
		h.appendMu.Unlock()

		var toFree []PageID
		h.chainMu.Lock()
		pf, err := s.pool.get(prev)
		if err != nil {
			h.chainMu.Unlock()
			return err
		}
		pf.latch.RLock()
		cur := pf.pg.next()
		pf.latch.RUnlock()
		s.pool.unpin(pf, false)
		examined := 0
		for cur != InvalidPage && cur != last && examined < reclaimBatchPages {
			examined++
			cf, err := s.pool.get(cur)
			if err != nil {
				h.chainMu.Unlock()
				return err
			}
			cf.latch.RLock()
			next := cf.pg.next()
			empty := cf.pg.liveCount() == 0
			cf.latch.RUnlock()
			s.pool.unpin(cf, false)
			if empty {
				// Unlink: prev.next = next (redo-only chain record).
				pf, err := s.pool.get(prev)
				if err != nil {
					h.chainMu.Unlock()
					return err
				}
				pf.latch.Lock()
				lsn := s.log.append(&logRecord{typ: recChain, page: prev, page2: next})
				pf.pg.setNext(next)
				pf.pg.setLSN(lsn)
				pf.latch.Unlock()
				s.pool.unpin(pf, true)
				toFree = append(toFree, cur)
			} else {
				prev = cur
			}
			cur = next
		}
		done := cur == InvalidPage || cur == last
		h.chainMu.Unlock()
		// Free outside the chain lock: the pages are unlinked, so neither
		// scanners nor the allocator can reach them in between.
		s.freePages(toFree)
		if done {
			return nil
		}
	}
}
