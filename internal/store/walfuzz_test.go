package store

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"demaq/internal/faultinject"
)

// walFuzzOptions gives the store small segments and a small pool.
func walFuzzOptions(fs *faultinject.FaultFS) Options {
	return Options{VFS: fs, BufferPages: 16, SyncCommits: true, WALSegmentSize: 16 << 10}
}

// crashedWALStore is a crashed store whose log spans several small
// segments and whose pool wrote pages back mid-log, with the paths of its
// segments, oldest first.
func crashedWALStore(tb testing.TB) (*faultinject.FaultFS, []string) {
	fs := faultinject.NewFaultFS(1)
	s, err := Open("wf", walFuzzOptions(fs))
	if err != nil {
		tb.Fatal(err)
	}
	h, err := s.CreateHeap("h")
	if err != nil {
		tb.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		tx := s.Begin()
		for i := 0; i < 10; i++ {
			if _, err := tx.Insert(h, bytes.Repeat([]byte{byte(round*10 + i)}, 900)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	fs.CrashNow()
	s.CrashForTest()
	fs.ClearFault()
	names, err := fs.ReadDir("wf")
	if err != nil {
		tb.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseWalSegName(n); ok {
			segs = append(segs, filepath.Join("wf", n))
		}
	}
	slices.Sort(segs)
	if len(segs) < 3 {
		tb.Fatalf("the log has %d segments, want at least 3", len(segs))
	}
	return fs, segs
}

// TestWALSegmentBadHeaderGap: a segment with a bad header that is not the
// newest held records if the segments around it do not join up — the
// first one starting after the redo offset, or a successor starting past
// its predecessor's end. Open refuses the log and leaves the segment on
// disk.
func TestWALSegmentBadHeaderGap(t *testing.T) {
	base, segs := crashedWALStore(t)
	for name, i := range map[string]int{"first": 0, "middle": 1} {
		t.Run(name, func(t *testing.T) {
			fs := base.Clone(1)
			file, err := fs.OpenFile(segs[i])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := file.WriteAt([]byte("garbage!"), 0); err != nil {
				t.Fatal(err)
			}
			if err := file.Sync(); err != nil {
				t.Fatal(err)
			}
			if s, err := Open("wf", walFuzzOptions(fs)); err == nil {
				s.CrashForTest()
				t.Fatalf("Open accepted a log without the records of %s", segs[i])
			}
			if names, _ := fs.ReadDir("wf"); !slices.Contains(names, filepath.Base(segs[i])) {
				t.Fatalf("the failed Open removed %s", segs[i])
			}
		})
	}
}

// FuzzWALSegment replaces or damages one log segment of a crashed store —
// its header and its frames — and opens the store: Open returns an error,
// or a store whose pages all carry LSNs within the log. It never panics
// and never hangs. The input picks the segment which-th from the newest,
// overwrites it at off with patch, and a non-zero cut then truncates it to
// cut bytes.
func FuzzWALSegment(f *testing.F) {
	base, segs := crashedWALStore(f)
	size := base.DurableSize(segs[len(segs)-1])
	f.Add(uint8(0), uint32(0), []byte{}, uint32(0))                             // untouched
	f.Add(uint8(0), uint32(0), []byte("garbage!"), uint32(0))                   // magic
	f.Add(uint8(0), uint32(8), []byte{0xff, 0xff, 0xff, 0xff}, uint32(0))       // sequence number
	f.Add(uint8(0), uint32(16), []byte{0, 0, 0, 0, 0, 0, 0x10, 0}, uint32(0))   // logical start
	f.Add(uint8(0), uint32(walSegHdrSize), []byte{0xff, 0xff, 0, 0}, uint32(0)) // first frame's length
	f.Add(uint8(0), uint32(walSegHdrSize+4), []byte{1}, uint32(0))              // first frame's crc
	f.Add(uint8(0), uint32(0), []byte{}, uint32(walSegHdrSize/2))               // torn header
	f.Add(uint8(0), uint32(0), []byte{}, uint32(size/2))                        // torn frames
	f.Add(uint8(0), uint32(size), bytes.Repeat([]byte{0xa5}, 64), uint32(0))    // trailing garbage
	f.Add(uint8(1), uint32(0), []byte("garbage!"), uint32(0))                   // a middle segment's magic
	f.Add(uint8(len(segs)-1), uint32(0), []byte("garbage!"), uint32(0))         // the first segment's magic
	f.Add(uint8(1), uint32(walSegHdrSize), []byte{0xff, 0xff, 0, 0}, uint32(0)) // a middle segment's frame
	f.Fuzz(func(t *testing.T, which uint8, off uint32, patch []byte, cut uint32) {
		fs := base.Clone(1)
		seg := segs[len(segs)-1-int(which)%len(segs)]
		file, err := fs.OpenFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		size := fs.DurableSize(seg)
		img := make([]byte, size)
		if _, err := file.ReadAt(img, 0); err != nil {
			t.Fatal(err)
		}
		at := int(off % uint32(size+1))
		if end := at + len(patch); end > len(img) {
			img = append(img, make([]byte, end-len(img))...)
		}
		copy(img[at:], patch)
		if cut != 0 && int(cut) < len(img) {
			img = img[:cut]
		}
		if err := file.Truncate(0); err != nil {
			t.Fatal(err)
		}
		if _, err := file.WriteAt(img, 0); err != nil {
			t.Fatal(err)
		}
		if err := file.Sync(); err != nil {
			t.Fatal(err)
		}

		// verified is the outcome of Open and, if it succeeded, of the check.
		type verified struct {
			opened bool
			err    error
		}
		done := make(chan verified, 1)
		go func() {
			s, err := Open("wf", walFuzzOptions(fs))
			if err != nil {
				done <- verified{err: err}
				return
			}
			defer s.CrashForTest()
			done <- verified{true, s.VerifyPageLSNs()}
		}()
		select {
		case v := <-done:
			if v.opened && v.err != nil {
				t.Fatalf("Open accepted a store whose pages run past its log: %v", v.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Open hangs on the damaged segment")
		}
	})
}
