package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"demaq/internal/vfs"
)

// openF opens path on fs or fails the test.
func openF(t *testing.T, fs *FaultFS, path string) vfs.File {
	t.Helper()
	f, err := fs.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// visible reads path's whole current content through a fresh handle.
func visible(t *testing.T, fs *FaultFS, path string) []byte {
	t.Helper()
	f := openF(t, fs, path)
	n, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	f.ReadAt(buf, 0)
	return buf
}

// syncedBase makes path hold "0123456789" durably (ops 1 and 2).
func syncedBase(t *testing.T, fs *FaultFS, path string) vfs.File {
	t.Helper()
	f := openF(t, fs, path)
	if _, err := f.WriteAt([]byte("0123456789"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFaultFSSyncedSurvivesCrash: what Sync made durable is what a reboot
// shows, whatever the seed.
func TestFaultFSSyncedSurvivesCrash(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		fs := NewFaultFS(seed)
		syncedBase(t, fs, "d/a")
		fs.CrashNow()
		if !fs.Crashed() {
			t.Fatal("Crashed() false after CrashNow")
		}
		fs.ClearFault()
		if got := visible(t, fs, "d/a"); string(got) != "0123456789" {
			t.Fatalf("seed %d: synced content after reboot %q", seed, got)
		}
	}
}

// TestFaultFSUnsyncedWriteResolution: an un-synced write is lost, kept or
// torn at a crash, per seed, and every outcome occurs over a few seeds. A
// seed always resolves the same way.
func TestFaultFSUnsyncedWriteResolution(t *testing.T) {
	outcome := func(seed int64) string {
		fs := NewFaultFS(seed)
		f := syncedBase(t, fs, "d/a")
		if _, err := f.WriteAt([]byte("abcdefgh"), 2); err != nil {
			t.Fatal(err)
		}
		fs.CrashNow()
		fs.ClearFault()
		return string(visible(t, fs, "d/a"))
	}
	seen := map[string]bool{}
	for seed := int64(1); seed <= 32; seed++ {
		got := outcome(seed)
		if again := outcome(seed); again != got {
			t.Fatalf("seed %d resolved %q, then %q", seed, got, again)
		}
		k := 0
		for k < 8 && got[2+k] == "abcdefgh"[k] {
			k++
		}
		if want := "01" + "abcdefgh"[:k] + "0123456789"[2+k:]; got != want {
			t.Fatalf("seed %d: %q is not a prefix of the write over the base", seed, got)
		}
		switch k {
		case 0:
			seen["lost"] = true
		case 8:
			seen["kept"] = true
		default:
			seen["torn"] = true
		}
	}
	for _, o := range []string{"lost", "kept", "torn"} {
		if !seen[o] {
			t.Errorf("outcome %q never occurred in 32 seeds", o)
		}
	}
}

// TestFaultFSCrashAt: the site's op fails with ErrCrashed, the ops before
// it succeed, and every call after it fails until ClearFault.
func TestFaultFSCrashAt(t *testing.T) {
	fs := NewFaultFS(1)
	f := syncedBase(t, fs, "d/a")
	fs.CrashAtSite(Site{Op: "sync", Class: "a", N: 1}, 1) // op 4
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("op 3: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, vfs.ErrCrashed) {
		t.Fatalf("op 4 = %v, want ErrCrashed", err)
	}
	if fs.Ops() != 4 {
		t.Fatalf("Ops() = %d, want 4", fs.Ops())
	}
	buf := make([]byte, 1)
	calls := map[string]error{}
	_, calls["OpenFile"] = fs.OpenFile("d/b")
	_, calls["ReadDir"] = fs.ReadDir("d")
	_, calls["ReadAt"] = f.ReadAt(buf, 0)
	_, calls["WriteAt"] = f.WriteAt(buf, 0)
	calls["Sync"] = f.Sync()
	calls["Truncate"] = f.Truncate(0)
	_, calls["Size"] = f.Size()
	for name, err := range calls {
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Errorf("%s after crash = %v, want ErrCrashed", name, err)
		}
	}
	if fs.Ops() != 4 {
		t.Fatalf("calls after the crash were numbered: Ops() = %d", fs.Ops())
	}
	fs.ClearFault()
	if fs.Crashed() {
		t.Fatal("still crashed after ClearFault")
	}
	if _, err := f.WriteAt([]byte("y"), 0); err != nil {
		t.Fatalf("write after reboot: %v", err)
	}
}

// TestFaultFSTearAtPrefix: a write torn at a site persists exactly its
// chosen prefix over the durable image; a negative keep persists half.
func TestFaultFSTearAtPrefix(t *testing.T) {
	const base, write = "0123456789", "abcdef"
	for _, keep := range []int{-1, 0, 1, 3, 6, 10} {
		t.Run(fmt.Sprintf("keep=%d", keep), func(t *testing.T) {
			fs := NewFaultFS(1)
			f := syncedBase(t, fs, "d/data.db")
			// A write inside the data file's first page rewrites its header.
			fs.armSite(Site{Op: "write", Class: "header", N: 1}, 1, true, keep)
			if _, err := f.WriteAt([]byte(write), 2); !errors.Is(err, vfs.ErrCrashed) {
				t.Fatalf("torn write = %v, want ErrCrashed", err)
			}
			fs.ClearFault()
			n := keep
			if n < 0 {
				n = len(write) / 2
			}
			n = min(n, len(write))
			want := base[:2] + write[:n] + base[2+n:]
			if got := visible(t, fs, "d/data.db"); string(got) != want {
				t.Fatalf("after reboot %q, want %q", got, want)
			}
		})
	}
}

// TestFaultFSTransientEvery: every n-th op fails once with ErrTransientIO
// and the retry, a new op, succeeds.
func TestFaultFSTransientEvery(t *testing.T) {
	fs := NewFaultFS(1)
	f := openF(t, fs, "d/a")
	fs.TransientEvery(3)
	var failed []int
	for i := 0; i < 9; i++ {
		if _, err := f.WriteAt([]byte{byte('a' + i)}, int64(i)); err != nil {
			if !vfs.IsTransient(err) {
				t.Fatalf("op %d: %v, want a transient error", fs.Ops(), err)
			}
			failed = append(failed, fs.Ops())
		}
	}
	if fmt.Sprint(failed) != "[3 6 9]" {
		t.Fatalf("failed ops %v, want [3 6 9]", failed)
	}
	if got := visible(t, fs, "d/a"); !bytes.Equal(got, []byte("ab\x00de\x00gh")) {
		t.Fatalf("content %q", got)
	}
}

// TestFaultFSFailWritesAfter: from op n on every mutation fails with
// ErrDiskFailure and stops being numbered; reads keep working.
func TestFaultFSFailWritesAfter(t *testing.T) {
	fs := NewFaultFS(1)
	f := syncedBase(t, fs, "d/a")
	fs.FailWritesAfter(3)
	for i, op := range []func() error{
		func() error { _, err := f.WriteAt([]byte("x"), 0); return err },
		f.Sync,
		func() error { return f.Truncate(1) },
		func() error { return fs.Remove("d/a") },
	} {
		if err := op(); !errors.Is(err, vfs.ErrDiskFailure) || !vfs.IsPermanent(err) {
			t.Fatalf("mutation %d = %v, want ErrDiskFailure", i, err)
		}
	}
	if fs.Ops() != 3 {
		t.Fatalf("Ops() = %d, want 3", fs.Ops())
	}
	if got := visible(t, fs, "d/a"); string(got) != "0123456789" {
		t.Fatalf("read on a failed disk %q", got)
	}
	fs.ClearFault()
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("write after ClearFault: %v", err)
	}
}

// TestFaultFSWriteBudget: a write larger than the remaining budget fails
// with ErrDiskFull and spends nothing; smaller writes and syncs go on.
func TestFaultFSWriteBudget(t *testing.T) {
	fs := NewFaultFS(1)
	f := openF(t, fs, "d/a")
	fs.SetWriteBudget(10)
	steps := []struct {
		n    int
		full bool
	}{{6, false}, {5, true}, {4, false}, {1, true}}
	off := int64(0)
	for i, s := range steps {
		_, err := f.WriteAt(bytes.Repeat([]byte("x"), s.n), off)
		if s.full != errors.Is(err, vfs.ErrDiskFull) {
			t.Fatalf("write %d of %d bytes = %v, disk full expected %v", i, s.n, err, s.full)
		}
		if err == nil {
			off += int64(s.n)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync on a full disk: %v", err)
	}
	if n, _ := f.Size(); n != 10 {
		t.Fatalf("size %d, want 10", n)
	}
	fs.SetWriteBudget(-1)
	if _, err := f.WriteAt(make([]byte, 100), off); err != nil {
		t.Fatalf("unlimited budget: %v", err)
	}
}

// TestFaultFSRemoveDurability: a synced unlink survives a crash; an
// un-synced one is kept or lost per seed, and a lost one resurrects the
// file with its durable content.
func TestFaultFSRemoveDurability(t *testing.T) {
	t.Run("synced", func(t *testing.T) {
		fs := NewFaultFS(1)
		f := syncedBase(t, fs, "d/a")
		if err := fs.Remove("d/a"); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		fs.CrashNow()
		fs.ClearFault()
		if names, _ := fs.ReadDir("d"); len(names) != 0 {
			t.Fatalf("synced unlink lost: ReadDir = %v", names)
		}
	})
	t.Run("unsynced", func(t *testing.T) {
		seen := map[bool]bool{}
		for seed := int64(1); seed <= 16; seed++ {
			fs := NewFaultFS(seed)
			syncedBase(t, fs, "d/a")
			if err := fs.Remove("d/a"); err != nil {
				t.Fatal(err)
			}
			fs.CrashNow()
			fs.ClearFault()
			names, _ := fs.ReadDir("d")
			back := len(names) == 1
			seen[back] = true
			if back && string(visible(t, fs, "d/a")) != "0123456789" {
				t.Fatalf("seed %d: resurrected file holds %q", seed, visible(t, fs, "d/a"))
			}
		}
		if !seen[true] || !seen[false] {
			t.Fatalf("an un-synced unlink was always or never kept in 16 seeds: %v", seen)
		}
	})
}

// TestFaultFSCrashDeterministic: the same workload, seed and crash point
// leave the same disk, at every crash point of the workload.
func TestFaultFSCrashDeterministic(t *testing.T) {
	workload := func(fs *FaultFS) {
		a, _ := fs.OpenFile("d/a")
		b, _ := fs.OpenFile("d/b")
		for i := 0; i < 6; i++ {
			a.WriteAt(bytes.Repeat([]byte{byte('a' + i)}, 16), int64(8*i))
			b.WriteAt(bytes.Repeat([]byte{byte('A' + i)}, 8), int64(4*i))
			if i%2 == 1 {
				a.Sync()
			}
			if i == 3 {
				b.Truncate(10)
				fs.Remove("d/b")
			}
		}
	}
	clean := NewFaultFS(5)
	workload(clean)
	total := clean.Ops()
	if total != 17 {
		t.Fatalf("workload has %d ops, want 17", total)
	}
	disk := func(at Site) string {
		fs := NewFaultFS(5)
		fs.CrashAtSite(at, 5)
		workload(fs)
		fs.ClearFault()
		names, _ := fs.ReadDir("d")
		s := fmt.Sprint(names)
		for _, n := range names {
			s += fmt.Sprintf(" %s=%q", n, visible(t, fs, "d/"+n))
		}
		return s
	}
	for _, v := range sites(clean.Trace(), nil) {
		if a, b := disk(v.site), disk(v.site); a != b {
			t.Fatalf("crash at %s: %s, then %s", v.name, a, b)
		}
	}
}

// TestFaultFSTrace: every mutation is numbered and recorded with its file
// and byte range; reads are not.
func TestFaultFSTrace(t *testing.T) {
	fs := NewFaultFS(1)
	f := openF(t, fs, "d/a")
	f.WriteAt([]byte("abcd"), 8)
	f.ReadAt(make([]byte, 2), 0)
	f.Size()
	f.Sync()
	f.Truncate(3)
	fs.Remove("d/a")
	want := []FaultPoint{
		{N: 1, Path: "d/a", Op: "write", Off: 8, Len: 4},
		{N: 2, Path: "d/a", Op: "sync"},
		{N: 3, Path: "d/a", Op: "truncate", Off: 3},
		{N: 4, Path: "d/a", Op: "remove"},
	}
	got := fs.Trace()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Trace() = %v, want %v", got, want)
	}
	if s := got[0].String(); s != "#1 write d/a off=8 len=4" {
		t.Fatalf("String() = %q", s)
	}
	got[0].N = 99
	if fs.Trace()[0].N != 1 {
		t.Fatal("Trace() returned the recorder's own slice")
	}
}

// TestFaultFSClone: a clone of a rebooted filesystem has its files, op
// count and trace, and the two evolve independently from there.
func TestFaultFSClone(t *testing.T) {
	fs := NewFaultFS(1)
	f := syncedBase(t, fs, "d/a")
	fs.CrashNow()
	fs.ClearFault()
	c := fs.Clone(2)
	if c.Ops() != fs.Ops() || fmt.Sprint(c.Trace()) != fmt.Sprint(fs.Trace()) {
		t.Fatalf("clone ops %d trace %v, original %d %v", c.Ops(), c.Trace(), fs.Ops(), fs.Trace())
	}
	cf := openF(t, c, "d/a")
	if _, err := cf.WriteAt([]byte("XX"), 0); err != nil {
		t.Fatal(err)
	}
	if got := visible(t, fs, "d/a"); string(got) != "0123456789" {
		t.Fatalf("a write to the clone shows in the original: %q", got)
	}
	if _, err := f.WriteAt([]byte("YY"), 8); err != nil {
		t.Fatal(err)
	}
	if got := visible(t, c, "d/a"); string(got) != "XX23456789" {
		t.Fatalf("clone content %q", got)
	}
	if c.Ops() != 3 || fs.Ops() != 3 {
		t.Fatalf("ops after one write each: clone %d, original %d; want 3, 3", c.Ops(), fs.Ops())
	}
}

// TestFaultFSClonePanicsWhenNotRebooted: cloning a filesystem with an
// un-synced op or a fired crash is a test bug, not a silent copy.
func TestFaultFSClonePanicsWhenNotRebooted(t *testing.T) {
	for _, name := range []string{"pending", "crashed"} {
		t.Run(name, func(t *testing.T) {
			fs := NewFaultFS(1)
			f := syncedBase(t, fs, "d/a")
			if name == "pending" {
				f.WriteAt([]byte("x"), 0)
			} else {
				fs.CrashNow()
			}
			defer func() {
				if recover() == nil {
					t.Fatal("Clone did not panic")
				}
			}()
			fs.Clone(2)
		})
	}
}

// TestFaultFSDurableSizeAndCut: DurableSize reports what a crash would
// keep; CutDurable trims it and shows the trimmed file, unnumbered.
func TestFaultFSDurableSizeAndCut(t *testing.T) {
	fs := NewFaultFS(1)
	if n := fs.DurableSize("d/none"); n != 0 {
		t.Fatalf("DurableSize of a missing file %d", n)
	}
	f := syncedBase(t, fs, "d/a")
	f.WriteAt([]byte("abcdef"), 10)
	if n := fs.DurableSize("d/a"); n != 10 {
		t.Fatalf("DurableSize with an un-synced append %d, want 10", n)
	}
	ops := fs.Ops()
	fs.CutDurable("d/a", 4)
	if fs.Ops() != ops {
		t.Fatalf("CutDurable was numbered: ops %d → %d", ops, fs.Ops())
	}
	if got := visible(t, fs, "d/a"); string(got) != "0123" {
		t.Fatalf("after CutDurable %q", got)
	}
	fs.CrashNow()
	fs.ClearFault()
	if got := visible(t, fs, "d/a"); string(got) != "0123" {
		t.Fatalf("CutDurable left a pending op: after a crash %q", got)
	}
}
