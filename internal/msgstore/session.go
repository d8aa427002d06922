package msgstore

import (
	"encoding/binary"
	"fmt"
	"sort"

	"demaq/internal/store"
)

// Reliable-messaging session state must survive restarts together with the
// messages it guards: the gateway acks a transfer only after the enqueue is
// durable, and the dedup window that suppresses retransmits of an acked
// transfer has to come back after a crash — otherwise the node silently
// re-admits duplicates and exactly-once degrades to at-least-once. Session
// snapshots are therefore persisted in a system heap, written inside the
// same page-store transaction as the enqueue they protect (Txn.PutSession),
// so "message durable" and "retransmit suppressed" are one atomic fact.
//
// Records are small append-only snapshots: each put appends a full versioned
// image of one session; the newest version per (kind, endpoint, peer) key
// wins at load, and a key's stale versions are compacted away once enough
// accumulate. The "sys:" prefix keeps the heap invisible to queue and
// collection loading.

const (
	sessionsHeapName = "sys:sessions"

	// SessionWindowWords bounds the persisted dedup bitmap: 16 words =
	// 1024 sequence numbers below the receive high-water mark.
	SessionWindowWords = 16

	// sessionCompactAfter triggers compaction of a key's stale on-disk
	// versions once that many records accumulate.
	sessionCompactAfter = 16
)

// SessionKind distinguishes sender from receiver session records.
type SessionKind uint8

// Session kinds.
const (
	SessionSend SessionKind = 0 // Seq is the reserved next-seq upper bound
	SessionRecv SessionKind = 1 // Seq is the receive high-water mark
)

// SessionState is one reliable-messaging session snapshot. For send
// sessions, Endpoint is the local source address and Seq the exclusive
// upper bound of the reserved sequence block (the restarted sender resumes
// from Seq, skipping at most one unused block). For receive sessions,
// Endpoint is the local subscription address, Peer the remote sender's
// source, Seq the highest admitted sequence number, and Window the dedup
// bitmap below it: bit i of the bitmap (word i/64, bit i%64) is set iff
// sequence Seq-i was admitted.
type SessionState struct {
	Kind     SessionKind
	Endpoint string
	Peer     string
	Seq      uint64
	Window   []uint64
}

type sessionKey struct {
	kind     SessionKind
	endpoint string
	peer     string
}

type sessionRec struct {
	rid store.RID
	ver uint64
}

type sessionEntry struct {
	state SessionState
	ver   uint64
	recs  []sessionRec // every on-disk version of this key, for compaction
}

func encodeSession(ver uint64, s SessionState) []byte {
	// Trailing all-ones words (the oldest window region, fully admitted)
	// are elided: a sequence older than the persisted window is treated as
	// a long-acked duplicate by the receiver, which is exactly what an
	// all-ones word says. In the steady in-order case this shrinks the
	// per-enqueue snapshot from the full bitmap to a handful of bytes.
	win := s.Window
	for len(win) > 0 && win[len(win)-1] == ^uint64(0) {
		win = win[:len(win)-1]
	}
	out := make([]byte, 0, 32+len(s.Endpoint)+len(s.Peer)+8*len(win))
	out = binary.LittleEndian.AppendUint64(out, ver)
	out = append(out, byte(s.Kind))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Endpoint)))
	out = append(out, s.Endpoint...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(s.Peer)))
	out = append(out, s.Peer...)
	out = binary.LittleEndian.AppendUint64(out, s.Seq)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(win)))
	for _, w := range win {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

func decodeSession(data []byte) (uint64, SessionState, error) {
	var s SessionState
	if len(data) < 13 {
		return 0, s, fmt.Errorf("msgstore: short session record")
	}
	ver := binary.LittleEndian.Uint64(data)
	s.Kind = SessionKind(data[8])
	off := 9
	el := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+el+2 > len(data) {
		return 0, s, fmt.Errorf("msgstore: truncated session endpoint")
	}
	s.Endpoint = string(data[off : off+el])
	off += el
	pl := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+pl+10 > len(data) {
		return 0, s, fmt.Errorf("msgstore: truncated session peer")
	}
	s.Peer = string(data[off : off+pl])
	off += pl
	s.Seq = binary.LittleEndian.Uint64(data[off:])
	off += 8
	nw := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	if off+8*nw > len(data) {
		return 0, s, fmt.Errorf("msgstore: truncated session window")
	}
	if nw > 0 {
		s.Window = make([]uint64, nw)
		for i := range s.Window {
			s.Window[i] = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
	}
	return ver, s, nil
}

// PutSession stages a session snapshot to be persisted atomically with the
// transaction's other effects — the enqueue whose retransmit it suppresses.
// The window slice is copied; the caller may keep mutating its own.
func (t *Txn) PutSession(s SessionState) {
	if len(s.Window) > 0 {
		s.Window = append([]uint64(nil), s.Window...)
	}
	t.sessions = append(t.sessions, s)
}

// PutSession durably writes one session snapshot in its own page-store
// transaction. Send-side sequence reservations use it: the reservation must
// be durable before the first message of the block goes on the wire.
func (ms *Store) PutSession(s SessionState) error {
	if len(s.Window) > 0 {
		s.Window = append([]uint64(nil), s.Window...)
	}
	ver := ms.sessVer.Add(1)
	pt := ms.ps.Begin()
	rid, err := pt.Insert(ms.sessionsHeap, encodeSession(ver, s))
	if err != nil {
		pt.Abort()
		return err
	}
	if err := pt.Commit(); err != nil {
		return err
	}
	ms.publishSession(s, ver, rid)
	return nil
}

// publishSession installs a committed snapshot in the in-memory map (newest
// version wins — concurrent committers may publish out of version order) and
// hands the key's stale on-disk versions to the background compactor once
// enough accumulate. The delete is pure garbage collection off the commit
// path: a dropped or failed delete only leaves stale low-version records
// that the next load ignores (and re-remembers for compaction).
func (ms *Store) publishSession(s SessionState, ver uint64, rid store.RID) {
	key := sessionKey{kind: s.Kind, endpoint: s.Endpoint, peer: s.Peer}
	ms.sessMu.Lock()
	e := ms.sessions[key]
	if e == nil {
		e = &sessionEntry{}
		ms.sessions[key] = e
	}
	e.recs = append(e.recs, sessionRec{rid: rid, ver: ver})
	if ver > e.ver {
		e.ver = ver
		e.state = s
	}
	if len(e.recs) > sessionCompactAfter {
		var stale []store.RID
		keep := e.recs[:0]
		for _, r := range e.recs {
			if r.ver == e.ver {
				keep = append(keep, r)
			} else {
				stale = append(stale, r.rid)
			}
		}
		e.recs = keep
		if !ms.sessClosed {
			select {
			case ms.sessGC <- stale:
			default:
				// Compactor backed up: skip this round. The records stay on
				// disk until the next Open re-collects them.
			}
		}
	}
	ms.sessMu.Unlock()
}

// sessionCompactor deletes superseded session snapshots in the background;
// the admit path never pays the delete commit. Runs until Close.
func (ms *Store) sessionCompactor() {
	defer close(ms.sessGCDone)
	for stale := range ms.sessGC {
		_ = ms.ps.BatchDelete(ms.sessionsHeap, stale) // GC only; stale versions are harmless
	}
}

// loadSessions rebuilds the session map from the system heap at Open:
// newest version per key wins, every on-disk version is remembered for
// compaction, and the version counter resumes past the maximum seen.
func (ms *Store) loadSessions() error {
	var maxVer uint64
	err := ms.ps.Scan(ms.sessionsHeap, func(rid store.RID, data []byte) bool {
		ver, s, err := decodeSession(data)
		if err != nil {
			return true // skip corrupt records; superseded snapshots carry the state
		}
		key := sessionKey{kind: s.Kind, endpoint: s.Endpoint, peer: s.Peer}
		e := ms.sessions[key]
		if e == nil {
			e = &sessionEntry{}
			ms.sessions[key] = e
		}
		e.recs = append(e.recs, sessionRec{rid: rid, ver: ver})
		if ver > e.ver || (e.ver == 0 && e.state.Endpoint == "") {
			e.ver = ver
			e.state = s
		}
		if ver > maxVer {
			maxVer = ver
		}
		return true
	})
	if err != nil {
		return err
	}
	ms.sessVer.Store(maxVer)
	return nil
}

// SessionSnapshot returns the current state of one session key.
func (ms *Store) SessionSnapshot(kind SessionKind, endpoint, peer string) (SessionState, bool) {
	ms.sessMu.Lock()
	defer ms.sessMu.Unlock()
	e := ms.sessions[sessionKey{kind: kind, endpoint: endpoint, peer: peer}]
	if e == nil {
		return SessionState{}, false
	}
	return e.state, true
}

// RecvSessionStates returns the receive sessions of one local endpoint —
// one per remote peer, sorted by peer for determinism.
func (ms *Store) RecvSessionStates(endpoint string) []SessionState {
	ms.sessMu.Lock()
	var out []SessionState
	for k, e := range ms.sessions {
		if k.kind == SessionRecv && k.endpoint == endpoint {
			out = append(out, e.state)
		}
	}
	ms.sessMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
