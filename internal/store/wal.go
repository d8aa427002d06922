package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The write-ahead log is a sequence of CRC-protected records spread over
// numbered segment files (wal.NNNNNN.log). The LSN of a record is its byte
// offset in the *logical* log plus one (so zero means "no LSN"); segment
// headers are excluded from logical offsets, so LSNs are monotonic for the
// store's whole lifetime and independent of how the log is cut into files.
// Records are physiological: each touches at most one page, guarded by the
// page LSN during redo, which makes redo idempotent.
//
// Demaq-specific shape: queue inserts log redo+undo images; the processed
// flag is a one-byte partial update; retention (GC) deletions are logged as
// redo-only batches without before images — the paper's observation that
// declarative retention frees the system from fully logging deletions.
//
// Checkpoints no longer truncate the log. Instead they publish a redo
// offset (the log head) in the store header; advanceHead then deletes
// segments that lie wholly behind it. Only the newest segment is ever
// appended to; a segment is sealed — fsynced in full — before its successor
// is created, so after a crash at most the final segment has a torn tail.

type recType uint8

// Log record types.
const (
	recBegin recType = iota + 1
	recCommit
	recAbort // abort complete (all undo applied)
	recInsert
	recDelete
	recSetBytes // partial in-record update (processed flag)
	recBatchDelete
	recFormatPage
	recChain
	recSetFlags
	recCLR
	recCheckpoint
	// recFullPage is a redo-only full image of one page, logged on a
	// page's first write-back since the last checkpoint. It makes torn
	// data-page writes recoverable: a partially persisted 8K write mixes
	// old and new bytes — cells moved by compaction, a page LSN from the
	// new image over slots from the old — which no physiological record
	// can repair. Recovery applies the image unconditionally and replays
	// later records on top.
	recFullPage
	// recCkptBegin/recCkptEnd bracket a fuzzy checkpoint. Begin marks the
	// instant the dirty-page set was snapshotted; End carries the begin
	// LSN, the published redo offset, and the dirty-page table that was
	// written back, closing the bracket. Recovery replays from the redo
	// offset in the store header; the bracket records exist so the replay
	// bound (and the protocol itself) is visible in the log.
	recCkptBegin
	recCkptEnd
)

// logRecord is the decoded form of one WAL record.
type logRecord struct {
	lsn     uint64
	typ     recType
	txn     uint64
	prevLSN uint64

	heap   uint32
	page   PageID
	slot   uint16
	off    uint16 // recSetBytes
	before []byte
	after  []byte
	rids   []RID  // recBatchDelete
	page2  PageID // recChain: new page; recFormatPage: chain prev
	page3  PageID // recFormatPage: chain next (overflow chains)
	flags  uint16

	undoNext uint64     // recCLR
	comp     *logRecord // recCLR: compensation action (one of the above)

	ckptBegin uint64   // recCkptEnd: LSN of the matching recCkptBegin
	ckptRedo  uint64   // recCkptEnd: redo offset published by this checkpoint
	dpt       []PageID // recCkptEnd: dirty-page table written back
}

// Segment file layout: a fixed header, then framed records.
const (
	walSegMagic   = "DEMAQWL1"
	walSegHdrSize = 24 // magic[8] | seq u64 | logical start offset u64
)

// walSegName formats the file name of the segment with the given sequence
// number. Sequence numbers are never reused, so a recovered store can
// always tell a stale (resurrected) segment from a live one.
func walSegName(seq uint64) string { return fmt.Sprintf("wal.%06d.log", seq) }

// parseWalSegName extracts the sequence number from a segment file name.
func parseWalSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal.") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	mid := name[len("wal.") : len(name)-len(".log")]
	if mid == "" {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// walSeg is one open segment file. start is the logical offset of its first
// record byte; the segment's bytes [walSegHdrSize, …) map to logical
// [start, …).
type walSeg struct {
	seq   uint64
	start uint64
	f     File
}

// wal is the log manager. Appends are buffered; Flush forces durability up
// to a target LSN.
//
// The flush path is the group-commit mechanism: one flusher at a time swaps
// the append buffer out, writes and fsyncs it with wal.mu RELEASED (so
// appends from other transactions keep landing in a fresh buffer), then
// publishes the new durable offset. Committers that arrive while a sync is
// in flight wait on the condition variable; when they wake, their commit
// record is usually already durable — either it rode along in the swapped
// buffer, or the next flusher picks it up together with every other record
// buffered meanwhile. N concurrent commits therefore cost far fewer than N
// fsyncs; the fsyncs/flushWaits counters make the ratio observable.
//
// All offsets below (bufStart, flushed, fileSize, head) are logical log
// offsets; the active segment translates them to file positions. The same
// flusher that publishes a durable offset rolls to a new segment once the
// active one exceeds segSize, sealing the old segment with an fsync first.
type wal struct {
	mu      sync.Mutex
	cond    *sync.Cond // signaled when a flush completes
	syncing bool       // a flusher is writing/fsyncing outside mu
	ioErr   error      // sticky: a failed log write poisons the wal
	vfs     VFS
	dir     string
	segs    []*walSeg // ascending seq; last is the active (append) segment
	head    uint64    // redo offset of the last published checkpoint
	segSize uint64    // roll threshold for the active segment, in bytes

	buf      []byte
	spare    []byte // the buffer the last flush wrote, emptied, for the next swap
	fileSize uint64 // durable logical bytes
	bufStart uint64 // logical offset of buf[0]
	flushed  uint64 // logical offset known durable
	sync     bool   // fsync on flush

	fsyncs     uint64 // physical fsyncs performed
	flushCalls uint64 // flush requests that had to wait or write
	coalesced  uint64 // flush requests satisfied by another flusher's sync
	segRolls   uint64 // segments sealed and rolled over

	// Adaptive group-commit linger: when the previous batch carried several
	// committers, the next flusher waits — event-driven, with a timer only
	// as fallback — until a comparable cohort has boarded the current
	// buffer, so the group rides one fsync instead of splitting into
	// alternating near-empty batches. Solo committers never linger
	// (lastGroup is 1 for them). joiners counts uncovered flush arrivals
	// since the last buffer swap, i.e. the committers aboard the batch
	// being assembled; it is reset when the buffer is swapped out.
	joiners       int    // committers aboard the batch being assembled
	lastGroup     int    // batch size of the previous sync
	swapEpoch     uint64 // incremented per buffer swap; detects stale joins
	lingering     bool   // the flusher is waiting for its cohort
	lingerGen     uint64 // guards the fallback timer against stale firings
	lingerExpired bool   // fallback timer fired during the current linger
}

// walDefaultSegSize is the roll threshold when Options leave it zero.
const walDefaultSegSize = 4 << 20

// openWALDir discovers, validates, and opens the log segments in dir.
// redoOff is the redo offset recovered from the store header: segments
// wholly behind it are deleted (including ones a crash resurrected after a
// checkpoint removed them), and replay will start there. The newest segment
// has its torn tail trimmed so appends resume at the end of the last intact
// record.
func openWALDir(vfs VFS, dir string, redoOff uint64, syncOnCommit bool, segSize uint64) (*wal, error) {
	if segSize == 0 {
		segSize = walDefaultSegSize
	}
	names, err := vfs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", dir, err)
	}
	seqs := make([]uint64, 0, len(names))
	for _, n := range names {
		if seq, ok := parseWalSegName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	w := &wal{
		vfs:     vfs,
		dir:     dir,
		head:    redoOff,
		segSize: segSize,
		sync:    syncOnCommit,
	}
	w.cond = sync.NewCond(&w.mu)

	maxSeen := uint64(0)
	var torn []string // segments with a bad header, removed once the rest pass
	for _, seq := range seqs {
		if seq > maxSeen {
			maxSeen = seq
		}
		path := filepath.Join(dir, walSegName(seq))
		f, err := vfs.OpenFile(path)
		if err != nil {
			return nil, err
		}
		rf := &retryFile{f: f}
		seg, ok, err := readSegHeader(rf, seq)
		if err != nil {
			rf.Close()
			return nil, err
		}
		if !ok {
			// A missing or torn segment header means the roll that created
			// this file never completed — no record in it was ever
			// acknowledged durable (the roll's fsync would have carried the
			// header). Drop it. It is the newest segment, or one dropped
			// before whose removal a crash undid; the check below finds a
			// segment that held records by the gap it leaves, and then Open
			// fails with the segment still on disk.
			rf.Close()
			torn = append(torn, path)
			continue
		}
		// A roll seals a segment before its successor exists, so a successor
		// starts where its predecessor's records end — unless the segments
		// between them lie wholly behind the redo offset and were removed —
		// and the first segment starts at or before the redo offset.
		var gap error
		if len(w.segs) == 0 && seg.start > w.head {
			gap = fmt.Errorf("wal: the log starts at %d in segment %s, after the redo offset %d", seg.start, path, w.head)
		} else if len(w.segs) > 0 {
			prev := w.segs[len(w.segs)-1]
			size, err := prev.f.Size()
			if gap = err; err == nil && (seg.start < prev.start || seg.start > w.head && seg.start+walSegHdrSize != prev.start+uint64(size)) {
				gap = fmt.Errorf("wal: segment %s starts at %d, its predecessor %s holds %d bytes from %d", path, seg.start, walSegName(prev.seq), size, prev.start)
			}
		}
		if gap != nil {
			rf.Close()
			w.closeSegs()
			return nil, gap
		}
		w.segs = append(w.segs, seg)
	}
	for _, path := range torn {
		vfs.Remove(path)
	}

	if len(w.segs) == 0 {
		seg, err := w.createSeg(maxSeen+1, redoOff)
		if err != nil {
			return nil, err
		}
		w.segs = []*walSeg{seg}
		w.bufStart, w.flushed, w.fileSize = redoOff, redoOff, redoOff
		return w, nil
	}

	// Trim the active segment's torn tail so appends resume at the end of
	// the last intact record instead of after crash garbage.
	active := w.segs[len(w.segs)-1]
	end, err := trimSegTail(active)
	if err != nil {
		w.closeSegs()
		return nil, err
	}
	w.bufStart, w.flushed, w.fileSize = end, end, end
	if w.head > end {
		// The header published a redo offset past the durable log end; with
		// fsync-on-commit off that is an accepted loss window.
		w.head = end
	}

	// Delete segments that lie wholly behind the redo offset — normally done
	// by advanceHead after each checkpoint, repeated here because a crash can
	// resurrect a removed segment or interrupt the removal pass.
	for len(w.segs) > 1 && w.segs[1].start <= w.head {
		seg := w.segs[0]
		seg.f.Close()
		w.vfs.Remove(filepath.Join(w.dir, walSegName(seg.seq)))
		w.segs = w.segs[1:]
	}
	return w, nil
}

// readSegHeader validates a segment's on-disk header. ok=false (with nil
// error) means the header is absent or torn — an aborted roll.
func readSegHeader(f File, wantSeq uint64) (*walSeg, bool, error) {
	var hdr [walSegHdrSize]byte
	n, err := f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	if n < walSegHdrSize || string(hdr[:8]) != walSegMagic {
		return nil, false, nil
	}
	seq := binary.LittleEndian.Uint64(hdr[8:])
	start := binary.LittleEndian.Uint64(hdr[16:])
	if seq != wantSeq {
		return nil, false, fmt.Errorf("wal: segment %s header claims seq %d", walSegName(wantSeq), seq)
	}
	return &walSeg{seq: wantSeq, start: start, f: f}, true, nil
}

// createSeg creates and syncs a new segment file whose first record byte
// has the given logical offset.
func (w *wal) createSeg(seq, start uint64) (*walSeg, error) {
	path := filepath.Join(w.dir, walSegName(seq))
	f, err := w.vfs.OpenFile(path)
	if err != nil {
		return nil, err
	}
	rf := &retryFile{f: f}
	var hdr [walSegHdrSize]byte
	copy(hdr[:8], walSegMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], start)
	if _, err := rf.WriteAt(hdr[:], 0); err != nil {
		rf.Close()
		return nil, err
	}
	if w.sync {
		if err := rf.Sync(); err != nil {
			rf.Close()
			return nil, err
		}
	}
	return &walSeg{seq: seq, start: start, f: rf}, nil
}

// walTailChunk is the size of the buffer trimSegTail reads the active
// segment through; a longer record is checked in pieces.
const walTailChunk = 64 << 10

// trimSegTail scans the active segment for its last intact record, truncates
// any torn tail after it, and returns the logical end offset of the log.
func trimSegTail(seg *walSeg) (uint64, error) {
	size, err := seg.f.Size()
	if err != nil {
		return 0, err
	}
	if size < walSegHdrSize {
		// The header was validated from the in-memory read; a shorter size
		// cannot happen, but guard anyway.
		return seg.start, nil
	}
	data := size - walSegHdrSize
	off, err := intactPrefix(bufio.NewReaderSize(io.NewSectionReader(seg.f, walSegHdrSize, data), walTailChunk), data)
	if err != nil {
		return 0, err
	}
	if off < data {
		if err := seg.f.Truncate(walSegHdrSize + off); err != nil {
			return 0, err
		}
		if err := seg.f.Sync(); err != nil {
			return 0, err
		}
	}
	return seg.start + uint64(off), nil
}

// intactPrefix returns the length of the run of complete, CRC-valid
// records that r, holding size bytes of records, starts with.
func intactPrefix(r *bufio.Reader, size int64) (int64, error) {
	endOK := func(err error) error {
		if err == io.EOF {
			return nil
		}
		return err
	}
	off := int64(0)
	for {
		hdr, err := r.Peek(8)
		if err != nil {
			return off, endOK(err)
		}
		n := int(binary.LittleEndian.Uint32(hdr))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || off+8+int64(n) > size {
			return off, nil
		}
		r.Discard(8) // Discard cannot fail on bytes Peek returned
		sum := uint32(0)
		for rem := n; rem > 0; {
			b, err := r.Peek(min(rem, r.Size()))
			if err != nil {
				return off, endOK(err)
			}
			sum = crc32.Update(sum, crc32.IEEETable, b)
			r.Discard(len(b))
			rem -= len(b)
		}
		if sum != crc {
			return off, nil
		}
		off += 8 + int64(n)
	}
}

func (w *wal) closeSegs() {
	for _, seg := range w.segs {
		seg.f.Close()
	}
}

func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	var first error
	for _, seg := range w.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// err returns the sticky I/O error, if any.
func (w *wal) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ioErr
}

// append encodes and buffers a record, returning its LSN.
func (w *wal) append(r *logRecord) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(r)
}

// appendLocked encodes the record straight into the buffer, behind an
// 8-byte header of payload length and CRC filled in afterwards.
func (w *wal) appendLocked(r *logRecord) uint64 {
	hdr := len(w.buf)
	lsn := w.bufStart + uint64(hdr) + 1
	w.buf = appendRecord(append(w.buf, make([]byte, 8)...), r)
	payload := w.buf[hdr+8:]
	binary.LittleEndian.PutUint32(w.buf[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[hdr+4:], crc32.ChecksumIEEE(payload))
	r.lsn = lsn
	return lsn
}

// maxSpareBuf bounds the buffer a flush hands back for reuse: a burst that
// grew it larger does not stay pinned.
const maxSpareBuf = 4 << 20

// flush makes the log durable up to at least the given LSN. Only one
// flusher writes at a time; it does so with the mutex released so appends
// (and later flush requests, which wait and usually find their records
// already durable) are never blocked behind an fsync.
func (w *wal) flush(lsn uint64) error {
	w.mu.Lock()
	if lsn <= w.flushed {
		w.mu.Unlock()
		return nil
	}
	w.flushCalls++
	return w.lead(lsn)
}

// followHold is how long a follower waits for some other caller to start
// the flush that covers it: a quarter of the 1 ms flush the benchmark
// models. A waiter with no caller of its own — a pipeline stage that
// releases output, say — that took the device the moment it freed would
// start half the flushes, and an admission arriving mid-flush would pay
// for two; one that follows rides the admissions' flushes, and flushes the
// log itself only when none comes within the hold.
const followHold = 250 * time.Microsecond

// follow makes the log durable up to at least lsn like flush, but first
// waits up to followHold for another flusher to cover it; only if none
// starts in that time does it flush the log itself, which it reports.
// A flush in flight when the hold runs out is waited for first, as flush
// would. A follower does not count toward a lingering flusher's cohort:
// the linger waits for committers that someone is waiting on.
func (w *wal) follow(lsn uint64) (led bool, err error) {
	w.mu.Lock()
	if lsn <= w.flushed {
		w.mu.Unlock()
		return false, nil
	}
	w.flushCalls++
	expired := false
	timer := time.AfterFunc(followHold, func() {
		w.mu.Lock()
		expired = true
		w.cond.Broadcast()
		w.mu.Unlock()
	})
	for lsn > w.flushed && w.ioErr == nil && (!expired || w.syncing) {
		w.cond.Wait()
	}
	timer.Stop()
	if lsn <= w.flushed {
		w.coalesced++
		w.mu.Unlock()
		return false, nil
	}
	if w.ioErr != nil {
		err := w.ioErr
		w.mu.Unlock()
		return false, err
	}
	return true, w.lead(lsn)
}

// lead is the body of flush, entered with w.mu held and the request
// counted; it returns with w.mu released.
func (w *wal) lead(lsn uint64) error {
	w.joiners++
	myEpoch := w.swapEpoch
	if w.lingering {
		// Nudge the lingering flusher: one more committer is aboard.
		w.cond.Broadcast()
	}
	for {
		if lsn <= w.flushed {
			// A concurrent flusher covered our LSN while we waited. This
			// must be checked before ioErr: our records are durable even if
			// a later batch failed. If no swap happened since we boarded,
			// our join counted toward the batch still being assembled —
			// take it back so the next linger doesn't wait for us.
			if w.swapEpoch == myEpoch {
				w.joiners--
			}
			w.coalesced++
			w.mu.Unlock()
			return nil
		}
		if w.ioErr != nil {
			err := w.ioErr
			w.mu.Unlock()
			return err
		}
		if !w.syncing {
			break
		}
		w.cond.Wait()
	}
	// Become the flusher. Under observed concurrency, linger until a cohort
	// the size of the previous batch has boarded (joiners signal as they
	// arrive; a timer bounds the wait in case the cohort shrank).
	w.syncing = true
	if w.sync && w.lastGroup > 1 && w.joiners < w.lastGroup {
		w.lingering = true
		w.lingerExpired = false
		w.lingerGen++
		gen := w.lingerGen
		timer := time.AfterFunc(500*time.Microsecond, func() {
			w.mu.Lock()
			// A fired timer may run after its linger already ended; the
			// generation check keeps it from expiring a later linger.
			if w.lingering && w.lingerGen == gen {
				w.lingerExpired = true
				w.cond.Broadcast()
			}
			w.mu.Unlock()
		})
		for w.joiners < w.lastGroup && !w.lingerExpired && w.ioErr == nil {
			w.cond.Wait()
		}
		timer.Stop()
		w.lingering = false
	}
	// Swap the buffer out and sync outside the mutex. Records never span
	// segments: the whole swapped buffer lands in the active segment, and
	// rolls happen only between flushes.
	buf := w.buf
	start := w.bufStart
	active := w.segs[len(w.segs)-1]
	w.buf, w.spare = w.spare, nil
	w.bufStart += uint64(len(buf))
	target := w.bufStart
	w.swapEpoch++
	w.lastGroup = w.joiners
	w.joiners = 0
	w.mu.Unlock()

	var err error
	if len(buf) > 0 {
		fileOff := int64(walSegHdrSize + (start - active.start))
		_, err = active.f.WriteAt(buf, fileOff)
	}
	if err == nil && w.sync {
		err = active.f.Sync()
	}

	w.mu.Lock()
	if err != nil {
		w.syncing = false
		w.ioErr = err
		w.cond.Broadcast()
		w.mu.Unlock()
		return err
	}
	w.fileSize = target
	w.flushed = target
	if cap(buf) <= maxSpareBuf {
		w.spare = buf[:0]
	}
	if w.sync {
		w.fsyncs++
	}
	needRoll := target-active.start >= w.segSize
	if !needRoll {
		w.syncing = false
		w.cond.Broadcast()
		w.mu.Unlock()
		return nil
	}
	// Roll while still holding the flusher token (syncing stays true) so no
	// other flusher writes during the handover. Seal the active segment with
	// an fsync — the invariant "only the newest segment can have a torn
	// tail" depends on it — then create its successor. A roll failure is
	// sticky like any other log I/O failure.
	newSeq := active.seq + 1
	w.mu.Unlock()
	var newSeg *walSeg
	rerr := active.f.Sync()
	if rerr == nil {
		newSeg, rerr = w.createSeg(newSeq, target)
	}
	w.mu.Lock()
	w.syncing = false
	if rerr != nil {
		w.ioErr = rerr
	} else {
		w.segs = append(w.segs, newSeg)
		w.segRolls++
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return nil
}

// quiesceLocked waits until no flusher is in flight. Caller holds w.mu.
func (w *wal) quiesceLocked() {
	for w.syncing {
		w.cond.Wait()
	}
}

// syncStats returns the fsync/coalescing counters.
func (w *wal) syncStats() (fsyncs, flushCalls, coalesced uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fsyncs, w.flushCalls, w.coalesced
}

// size returns the cumulative log bytes ever written (across head
// advancements), which is the log-volume metric reported by experiment E3.
func (w *wal) size() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bufStart + uint64(len(w.buf))
}

// durable returns the logical offset known durable, without waiting for a
// flush in progress.
func (w *wal) durable() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushed
}

// liveBytes returns the log bytes a crash right now would have to replay
// through: everything at or after the published redo offset. This is the
// quantity the WAL soft/hard budgets bound.
func (w *wal) liveBytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bufStart + uint64(len(w.buf)) - w.head
}

// headOffset returns the published redo offset.
func (w *wal) headOffset() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.head
}

// segmentStats returns the number of live segment files and rolls so far.
func (w *wal) segmentStats() (segments int, rolls uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segs), w.segRolls
}

// advanceHead publishes a new redo offset and deletes segments that lie
// wholly behind it. The caller must have durably persisted newHead in the
// store header first: once a segment is gone, recovery can never start
// before it again. The active segment is never deleted, so liveBytes can
// reach zero while old bytes still sit in the active file — they are dead,
// just not yet reclaimed, and the next roll lets them go.
func (w *wal) advanceHead(newHead uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if newHead > w.head {
		w.head = newHead
	}
	for len(w.segs) > 1 && w.segs[1].start <= w.head {
		seg := w.segs[0]
		seg.f.Close()
		// A failed remove leaves a stale segment on disk; openWALDir
		// deletes it on the next open.
		w.vfs.Remove(filepath.Join(w.dir, walSegName(seg.seq)))
		w.segs = w.segs[1:]
	}
}

// scanFrom reads all complete records whose logical offset is >= from,
// stopping at the first torn or corrupt record (the tail of an interrupted
// write). The log is snapshotted under the mutex but iterated with it
// RELEASED: recovery redo runs inside fn, and evicting a dirty page there
// ends in wal.flush — holding w.mu across the callback would self-deadlock
// as soon as the redo working set outgrows the buffer pool.
func (w *wal) scanFrom(from uint64, fn func(r *logRecord) error) error {
	w.mu.Lock()
	w.quiesceLocked()
	if from < w.head {
		from = w.head
	}
	var data []byte
	for i, seg := range w.segs {
		segEnd := w.flushed
		if i+1 < len(w.segs) {
			segEnd = w.segs[i+1].start
		}
		lo := from
		if lo < seg.start {
			lo = seg.start
		}
		if segEnd <= lo {
			continue
		}
		chunk := make([]byte, segEnd-lo)
		fileOff := int64(walSegHdrSize + (lo - seg.start))
		if n, err := seg.f.ReadAt(chunk, fileOff); err != nil && err != io.EOF {
			w.mu.Unlock()
			return err
		} else {
			chunk = chunk[:n]
		}
		data = append(data, chunk...)
	}
	switch {
	case from <= w.bufStart:
		data = append(data, w.buf...)
	case from < w.bufStart+uint64(len(w.buf)):
		data = append(data, w.buf[from-w.bufStart:]...)
	}
	base := from
	w.mu.Unlock()
	off := 0
	for off+8 <= len(data) {
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n == 0 {
			// No record is empty; a zero header is a lost write's hole (or
			// zero padding), i.e. the durable tail ends here.
			break
		}
		if off+8+int(n) > len(data) {
			break // torn tail
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt tail
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("wal: corrupt record at offset %d: %w", int(base)+off, err)
		}
		r.lsn = base + uint64(off) + 1
		if err := fn(r); err != nil {
			return err
		}
		off += 8 + int(n)
	}
	return nil
}

// --- record encoding ---

// appendRecord appends the encoding of r, the payload of its log record.
func appendRecord(b []byte, r *logRecord) []byte {
	b = append(b, byte(r.typ))
	b = binary.LittleEndian.AppendUint64(b, r.txn)
	b = binary.LittleEndian.AppendUint64(b, r.prevLSN)
	switch r.typ {
	case recBegin, recCommit, recAbort, recCheckpoint, recCkptBegin:
	case recInsert:
		b = binary.LittleEndian.AppendUint32(b, r.heap)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
		b = binary.LittleEndian.AppendUint16(b, r.slot)
		b = appendBytes(b, r.after)
	case recDelete:
		b = binary.LittleEndian.AppendUint32(b, r.heap)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
		b = binary.LittleEndian.AppendUint16(b, r.slot)
		b = appendBytes(b, r.before)
	case recSetBytes:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
		b = binary.LittleEndian.AppendUint16(b, r.slot)
		b = binary.LittleEndian.AppendUint16(b, r.off)
		b = appendBytes(b, r.before)
		b = appendBytes(b, r.after)
	case recBatchDelete:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.rids)))
		for _, rid := range r.rids {
			b = binary.LittleEndian.AppendUint32(b, uint32(rid.Page))
			b = binary.LittleEndian.AppendUint16(b, rid.Slot)
		}
	case recFormatPage:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
		b = binary.LittleEndian.AppendUint16(b, r.flags)
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page2)) // prev in chain
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page3)) // next in chain
	case recChain:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))  // tail page
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page2)) // new next
	case recSetFlags:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
		b = binary.LittleEndian.AppendUint16(b, r.flags)
	case recCLR:
		b = binary.LittleEndian.AppendUint64(b, r.undoNext)
		n := len(b)
		b = appendRecord(append(b, 0, 0, 0, 0), r.comp)
		binary.LittleEndian.PutUint32(b[n:], uint32(len(b)-n-4))
	case recFullPage:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.page))
		b = appendBytes(b, r.after)
	case recCkptEnd:
		b = binary.LittleEndian.AppendUint64(b, r.ckptBegin)
		b = binary.LittleEndian.AppendUint64(b, r.ckptRedo)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.dpt)))
		for _, pid := range r.dpt {
			b = binary.LittleEndian.AppendUint32(b, uint32(pid))
		}
	}
	return b
}

func appendBytes(b, data []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(data)))
	return append(b, data...)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || d.off+int(n) > len(d.b) {
		d.fail()
		return nil
	}
	v := make([]byte, n)
	copy(v, d.b[d.off:])
	d.off += int(n)
	return v
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated record")
	}
}

func decodeRecord(payload []byte) (*logRecord, error) {
	d := &decoder{b: payload}
	r := &logRecord{}
	r.typ = recType(d.u8())
	r.txn = d.u64()
	r.prevLSN = d.u64()
	switch r.typ {
	case recBegin, recCommit, recAbort, recCheckpoint, recCkptBegin:
	case recInsert:
		r.heap = d.u32()
		r.page = PageID(d.u32())
		r.slot = d.u16()
		r.after = d.bytes()
	case recDelete:
		r.heap = d.u32()
		r.page = PageID(d.u32())
		r.slot = d.u16()
		r.before = d.bytes()
	case recSetBytes:
		r.page = PageID(d.u32())
		r.slot = d.u16()
		r.off = d.u16()
		r.before = d.bytes()
		r.after = d.bytes()
	case recBatchDelete:
		n := d.u32()
		if n > uint32(len(payload)) {
			return nil, fmt.Errorf("batch delete count out of range")
		}
		r.rids = make([]RID, 0, n)
		for i := uint32(0); i < n; i++ {
			pg := PageID(d.u32())
			sl := d.u16()
			r.rids = append(r.rids, RID{Page: pg, Slot: sl})
		}
	case recFormatPage:
		r.page = PageID(d.u32())
		r.flags = d.u16()
		r.page2 = PageID(d.u32())
		r.page3 = PageID(d.u32())
	case recChain:
		r.page = PageID(d.u32())
		r.page2 = PageID(d.u32())
	case recSetFlags:
		r.page = PageID(d.u32())
		r.flags = d.u16()
	case recCLR:
		r.undoNext = d.u64()
		inner := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		comp, err := decodeRecord(inner)
		if err != nil {
			return nil, err
		}
		r.comp = comp
	case recFullPage:
		r.page = PageID(d.u32())
		r.after = d.bytes()
	case recCkptEnd:
		r.ckptBegin = d.u64()
		r.ckptRedo = d.u64()
		n := d.u32()
		if n > uint32(len(payload)) {
			return nil, fmt.Errorf("dirty-page table count out of range")
		}
		r.dpt = make([]PageID, 0, n)
		for i := uint32(0); i < n; i++ {
			r.dpt = append(r.dpt, PageID(d.u32()))
		}
	default:
		return nil, fmt.Errorf("unknown record type %d", r.typ)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}
