package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"testing"

	"demaq/internal/faultinject"
)

// frameWAL encodes records in the on-disk WAL framing (length, crc,
// payload) and returns the bytes plus each record's end offset.
func frameWAL(recs []*logRecord) (data []byte, ends []int) {
	for _, r := range recs {
		payload := appendRecord(nil, r)
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		data = append(data, hdr[:]...)
		data = append(data, payload...)
		ends = append(ends, len(data))
	}
	return data, ends
}

// segHeaderBytes builds a segment file header for tests.
func segHeaderBytes(seq, start uint64) []byte {
	hdr := make([]byte, walSegHdrSize)
	copy(hdr, walSegMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint64(hdr[16:], start)
	return hdr
}

// scanWALBytes loads data as the record area of a single WAL segment and
// scans it, returning the number of records recovered and the scan error.
func scanWALBytes(t *testing.T, data []byte) (int, error) {
	t.Helper()
	fs := faultinject.NewFaultFS(1)
	f, err := fs.OpenFile("w/" + walSegName(1))
	if err != nil {
		t.Fatal(err)
	}
	seg := append(segHeaderBytes(1, 0), data...)
	if _, err := f.WriteAt(seg, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w, err := openWALDir(fs, "w", 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = w.scanFrom(0, func(r *logRecord) error {
		count++
		return nil
	})
	return count, err
}

func torntailRecords() []*logRecord {
	// A realistic mix of record shapes and sizes, including a large one
	// whose tail spans many cut points.
	recs := []*logRecord{
		{typ: recBegin, txn: 1},
		{typ: recInsert, txn: 1, page: 2, slot: 0, after: []byte("payload-one")},
		{typ: recInsert, txn: 1, page: 2, slot: 1, after: make([]byte, 300)},
		{typ: recCommit, txn: 1},
		{typ: recFullPage, page: 3, after: make([]byte, 150)},
		{typ: recBegin, txn: 2},
	}
	for i := range recs[2].after {
		recs[2].after[i] = byte(i)
	}
	for i := range recs[4].after {
		recs[4].after[i] = byte(i * 7)
	}
	return recs
}

// TestWALTornTailEveryOffset truncates the log after every byte offset:
// recovery must stop cleanly at the last complete record — never error,
// never recover a partial record.
func TestWALTornTailEveryOffset(t *testing.T) {
	data, ends := frameWAL(torntailRecords())
	complete := func(cut int) int {
		n := 0
		for _, e := range ends {
			if e <= cut {
				n++
			}
		}
		return n
	}
	for cut := 0; cut <= len(data); cut++ {
		got, err := scanWALBytes(t, data[:cut])
		if err != nil {
			t.Fatalf("cut at byte %d: scan error: %v", cut, err)
		}
		if want := complete(cut); got != want {
			t.Fatalf("cut at byte %d: recovered %d records, want %d", cut, got, want)
		}
	}
}

// TestWALCorruptTailEveryOffset flips each byte of the final record (its
// frame header and payload) in turn: the CRC (or the zero/bounds checks on
// the header) must reject it, and recovery stops at the previous record.
func TestWALCorruptTailEveryOffset(t *testing.T) {
	data, ends := frameWAL(torntailRecords())
	last := len(ends) - 1
	start := 0
	if last > 0 {
		start = ends[last-1]
	}
	for off := start; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xFF
		got, err := scanWALBytes(t, mut)
		if err != nil {
			t.Fatalf("flip at byte %d: scan error: %v", off, err)
		}
		if got != last {
			t.Fatalf("flip at byte %d: recovered %d records, want %d", off, got, last)
		}
	}
}

// TestWALZeroedTailStopsCleanly models a lost write that leaves a hole of
// zeroes where a record's frame should be: the zero length header is the
// durable tail, not a corruption error (crc32("") == 0 would otherwise
// accept an empty record and trip over the decoder).
func TestWALZeroedTailStopsCleanly(t *testing.T) {
	data, ends := frameWAL(torntailRecords())
	for i, end := range ends {
		mut := append([]byte(nil), data...)
		for b := end; b < len(mut); b++ {
			mut[b] = 0
		}
		got, err := scanWALBytes(t, mut)
		if err != nil {
			t.Fatalf("zeroed after record %d: scan error: %v", i, err)
		}
		if got != i+1 {
			t.Fatalf("zeroed after record %d: recovered %d records, want %d", i, got, i+1)
		}
	}
}

// TestWALTornTailThroughStore drives the same property end-to-end: commit
// transactions, truncate the durable WAL image at every byte offset past
// the last checkpoint, and reopen — Open must always succeed and the pages
// must verify.
func TestWALTornTailThroughStore(t *testing.T) {
	build := func() (*faultinject.FaultFS, int) {
		fs := faultinject.NewFaultFS(1)
		s, err := Open("tt", Options{VFS: fs, SyncCommits: true})
		if err != nil {
			t.Fatal(err)
		}
		h, err := s.CreateHeap("h")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			tx := s.Begin()
			if _, err := tx.Insert(h, []byte(fmt.Sprintf("rec-%d", i))); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Leave the WAL populated: no checkpoint, no clean Close.
		s.CrashForTest()
		walLen := fs.DurableSize("tt/" + walSegName(1))
		if walLen <= walSegHdrSize {
			t.Fatal("workload left no durable WAL bytes")
		}
		return fs, walLen
	}
	_, walLen := build()
	// Cut points cover the segment header too: a store whose only segment
	// lost its header must reopen as an empty log.
	for cut := 0; cut < walLen; cut++ {
		fs, _ := build()
		fs.CutDurable("tt/"+walSegName(1), cut)
		s, err := Open("tt", Options{VFS: fs, SyncCommits: true})
		if err != nil {
			t.Fatalf("cut at byte %d: reopen: %v", cut, err)
		}
		if err := s.VerifyPageLSNs(); err != nil {
			t.Fatalf("cut at byte %d: %v", cut, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("cut at byte %d: close: %v", cut, err)
		}
	}
}

// TestWALTailCheckAcrossChunkEdges holds trimSegTail, which checks the
// active segment through a buffer of walTailChunk bytes, to the check over
// the whole segment at once that it replaced: frames that straddle the
// buffer's edge and frames longer than the buffer, torn or flipped at
// every frame boundary and inside the long frames, truncate the segment at
// the same byte.
func TestWALTailCheckAcrossChunkEdges(t *testing.T) {
	var data []byte
	var ends []int
	for i, n := range []int{100, walTailChunk - 50, 30, 3*walTailChunk + 17, walTailChunk - 8, 1, walTailChunk, 5000} {
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(i*31 + j)
		}
		data = binary.LittleEndian.AppendUint32(data, uint32(n))
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(payload))
		data = append(data, payload...)
		ends = append(ends, len(data))
	}
	// whole is the former check: the segment in one buffer.
	whole := func(data []byte) int {
		off := 0
		for off+8 <= len(data) {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			if n == 0 || off+8+n > len(data) || crc32.ChecksumIEEE(data[off+8:off+8+n]) != binary.LittleEndian.Uint32(data[off+4:]) {
				break
			}
			off += 8 + n
		}
		return off
	}
	check := func(what string, data []byte) {
		t.Helper()
		fs := faultinject.NewFaultFS(1)
		f, err := fs.OpenFile("w/" + walSegName(1))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt(append(segHeaderBytes(1, 1000), data...), 0); err != nil {
			t.Fatal(err)
		}
		end, err := trimSegTail(&walSeg{seq: 1, start: 1000, f: f})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want := whole(data)
		size, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		if end != 1000+uint64(want) || size != int64(walSegHdrSize+want) {
			t.Fatalf("%s: log ends at %d in a %d-byte segment, want %d in %d", what, end, size, 1000+want, walSegHdrSize+want)
		}
	}
	check("intact", data)
	var cuts []int
	for i, e := range ends {
		start := 0
		if i > 0 {
			start = ends[i-1]
		}
		cuts = append(cuts, start+1, start+4, start+7, start+8, start+9, (start+e)/2, e-1, e)
		for c := start + walTailChunk; c < e; c += walTailChunk {
			cuts = append(cuts, c-1, c, c+1)
		}
	}
	for _, c := range cuts {
		check(fmt.Sprint("torn at ", c), data[:c])
		if c < len(data) {
			mut := bytes.Clone(data)
			mut[c] ^= 0x5a
			check(fmt.Sprint("flipped at ", c), mut)
		}
	}
}
