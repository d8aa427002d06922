package store

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the follower wait (FollowDurable): it rides the next flush
// another caller starts and flushes the log itself only when none starts
// within followHold.

// failSyncVFS fails every sync of a WAL segment once fail is set.
type failSyncVFS struct {
	VFS
	fail atomic.Bool
}

var errSyncFailed = errors.New("injected sync failure")

func (v *failSyncVFS) OpenFile(path string) (File, error) {
	f, err := v.VFS.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(path, "wal.") {
		return f, nil
	}
	return &failSyncFile{File: f, v: v}, nil
}

type failSyncFile struct {
	File
	v *failSyncVFS
}

func (f *failSyncFile) Sync() error {
	if f.v.fail.Load() {
		return errSyncFailed
	}
	return f.File.Sync()
}

// precommitOne pre-commits a transaction that inserts one record into a
// heap of its own and returns its commit LSN.
func precommitOne(t *testing.T, s *Store) uint64 {
	t.Helper()
	h, ok := s.Heap("follow")
	if !ok {
		var err error
		if h, err = s.CreateHeap("follow"); err != nil {
			t.Fatal(err)
		}
	}
	tx := s.Begin()
	if _, err := tx.Insert(h, []byte("rec")); err != nil {
		t.Fatal(err)
	}
	lsn, err := tx.Precommit()
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestFollowerRidesLeaderFlush: a follower waiting for the log rides the
// flush a leader starts within the hold — one fsync for the two — and
// reports that it did not flush itself. The leader is started as soon as
// the follower waits; a round in which the scheduler delayed it past the
// hold is run again.
func TestFollowerRidesLeaderFlush(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	for round := 0; ; round++ {
		if round == 20 {
			t.Fatal("the follower never rode the leader's flush")
		}
		lsn := precommitOne(t, s)
		before := s.Stats()
		type result struct {
			led bool
			err error
		}
		done := make(chan result, 1)
		go func() {
			led, err := s.FollowDurable(lsn)
			done <- result{led, err}
		}()
		for s.Stats().WALFlushCalls == before.WALFlushCalls {
			time.Sleep(time.Microsecond)
		}
		if err := s.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		r := <-done
		if r.err != nil {
			t.Fatal(r.err)
		}
		if got := s.Stats().WALFsyncs - before.WALFsyncs; got != 1 {
			t.Fatalf("a follower and a leader on one LSN cost %d fsyncs, want 1", got)
		}
		if !r.led {
			return
		}
	}
}

// TestFollowerFlushesAfterHold: a follower that no other caller joins
// flushes the log itself once the hold has run out.
func TestFollowerFlushesAfterHold(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	lsn := precommitOne(t, s)
	before := s.Stats()
	start := time.Now()
	led, err := s.FollowDurable(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < followHold {
		t.Fatalf("the follower flushed after %v, before the %v hold", waited, followHold)
	}
	if !led {
		t.Fatal("the follower did not report its own flush")
	}
	if got := s.Stats().WALFsyncs - before.WALFsyncs; got != 1 {
		t.Fatalf("%d fsyncs, want 1", got)
	}
	if s.Durable() < lsn {
		t.Fatalf("durable up to %d, below the follower's LSN %d", s.Durable(), lsn)
	}
}

// TestFollowerOnFailedLog: once a flush has failed, a follower for a record
// it did not make durable gets the sticky error at once, without a hold and
// without touching the device.
func TestFollowerOnFailedLog(t *testing.T) {
	vfs := &failSyncVFS{VFS: OSFileSystem()}
	opts := DefaultOptions()
	opts.VFS = vfs
	s := openTemp(t, opts)
	lsn := precommitOne(t, s)
	vfs.fail.Store(true)
	if err := s.WaitDurable(lsn); !errors.Is(err, errSyncFailed) {
		t.Fatalf("leader flush on a failing device: %v", err)
	}
	before := s.Stats()
	start := time.Now()
	led, err := s.FollowDurable(lsn)
	if !errors.Is(err, errSyncFailed) || led {
		t.Fatalf("follower on a failed log: led %v, err %v; want the sticky error", led, err)
	}
	if waited := time.Since(start); waited >= followHold {
		t.Fatalf("the follower waited %v for a dead log", waited)
	}
	if s.Stats().WALFsyncs != before.WALFsyncs {
		t.Fatal("the follower synced a dead log")
	}
}

// TestFollowerAlreadyDurable: a follower whose LSN is durable returns at
// once and counts no flush request.
func TestFollowerAlreadyDurable(t *testing.T) {
	s := openTemp(t, DefaultOptions())
	lsn := precommitOne(t, s)
	if err := s.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	start := time.Now()
	led, err := s.FollowDurable(lsn)
	if err != nil || led {
		t.Fatalf("led %v, err %v", led, err)
	}
	if waited := time.Since(start); waited >= followHold {
		t.Fatalf("the follower waited %v for a durable LSN", waited)
	}
	if after := s.Stats(); after.WALFsyncs != before.WALFsyncs || after.WALFlushCalls != before.WALFlushCalls {
		t.Fatalf("fsyncs %d -> %d, flush calls %d -> %d", before.WALFsyncs, after.WALFsyncs,
			before.WALFlushCalls, after.WALFlushCalls)
	}
}
