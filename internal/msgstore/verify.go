package msgstore

import (
	"encoding/binary"
	"fmt"

	"demaq/internal/store"
)

// VerifyIntegrity cross-checks the message store's durable state against
// the in-memory structures rebuilt from it. It is the recovery invariant
// checker of the crash torture harness, run after every simulated crash
// and reopen:
//
//   - every payload record decodes, and no message id appears twice;
//   - the status side-heap joins cleanly: every live message's processed
//     flag agrees with its status record, orphan status records (payload
//     deleted, status delete lost in the crash — the one state the
//     CollectPass WAL ordering permits) reference no live payload, and no status record
//     carries an id the store may still hand out;
//   - the property index matches a recomputation from the queue scan,
//     posting for posting;
//   - no page carries an LSN beyond the end of the log.
func (ms *Store) VerifyIntegrity() error {
	ms.qmu.RLock()
	queues := make([]*Queue, 0, len(ms.queues))
	for _, q := range ms.queues {
		queues = append(queues, q)
	}
	ms.qmu.RUnlock()

	expectPostings := 0
	countPostings := func(q *Queue, check bool) error {
		q.mu.RLock()
		defer q.mu.RUnlock()
		for _, m := range q.msgs {
			if m.dead.Load() || ms.propIndex == nil {
				continue
			}
			for k, v := range m.propsMap() {
				if !indexableProp(k) {
					continue
				}
				key := store.IndexKey(uint64(m.id), k, v.StringValue())
				if _, ok := ms.propIndex.Get(key); check && !ok {
					return fmt.Errorf("message %d: property %q=%q missing from index", m.id, k, v.StringValue())
				}
				expectPostings++
			}
		}
		return nil
	}
	for _, q := range queues {
		if q.Mode != Persistent {
			if err := countPostings(q, true); err != nil {
				return err
			}
			continue
		}
		// Payload heap: decodes, unique ids, matches in-memory state.
		seen := map[MsgID]bool{}
		var scanErr error
		err := ms.ps.Scan(q.heap, func(rid store.RID, payload []byte) bool {
			m, err := decodeMessage(payload)
			if err != nil {
				scanErr = fmt.Errorf("queue %s: record %s does not decode: %w", q.Name, rid, err)
				return false
			}
			if seen[m.id] {
				scanErr = fmt.Errorf("queue %s: message %d appears twice in the heap", q.Name, m.id)
				return false
			}
			seen[m.id] = true
			live := ms.lookup(m.id)
			if live == nil {
				scanErr = fmt.Errorf("queue %s: on-disk message %d missing from the rebuilt store", q.Name, m.id)
				return false
			}
			if live.q != q {
				scanErr = fmt.Errorf("message %d: on disk in queue %s, in memory in %s", m.id, q.Name, live.q.Name)
				return false
			}
			liveProps := live.propsMap()
			if len(liveProps) != len(m.props) {
				scanErr = fmt.Errorf("message %d: %d props on disk, %d in memory", m.id, len(m.props), len(liveProps))
				return false
			}
			for k, v := range m.props {
				lv, ok := liveProps[k]
				if !ok || lv.StringValue() != v.StringValue() {
					scanErr = fmt.Errorf("message %d: property %q mismatch", m.id, k)
					return false
				}
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return err
		}

		// Status side-heap: every record joins to a payload of this queue
		// or is a tolerated orphan; joined flags agree with memory.
		err = ms.ps.Scan(q.statusHeap, func(rid store.RID, payload []byte) bool {
			if len(payload) != statusRecSize {
				scanErr = fmt.Errorf("queue %s: status record %s has %d bytes", q.Name, rid, len(payload))
				return false
			}
			id := MsgID(binary.LittleEndian.Uint64(payload))
			processed := payload[8]&statusProcessed != 0
			if next := ms.nextID.Load(); uint64(id) >= next {
				scanErr = fmt.Errorf("queue %s: status record %s has id %d, next id to assign is %d", q.Name, rid, id, next)
				return false
			}
			if !seen[id] {
				return true // orphan: payload delete durable, status delete lost
			}
			live := ms.lookup(id)
			if live == nil {
				scanErr = fmt.Errorf("queue %s: status for %d but message not rebuilt", q.Name, id)
				return false
			}
			if live.statusRID == rid && live.processed.Load() != processed {
				scanErr = fmt.Errorf("message %d: processed=%v in memory, %v in status heap", id, live.processed.Load(), processed)
				return false
			}
			return true
		})
		if err == nil {
			err = scanErr
		}
		if err != nil {
			return err
		}

		// Memory → disk direction: every live message is on disk, and its
		// index postings exist.
		q.mu.RLock()
		for _, m := range q.msgs {
			if !m.dead.Load() && !seen[m.id] {
				q.mu.RUnlock()
				return fmt.Errorf("queue %s: live message %d has no heap record", q.Name, m.id)
			}
		}
		q.mu.RUnlock()
		if err := countPostings(q, true); err != nil {
			return err
		}
	}
	if ms.propIndex != nil && ms.propIndex.Len() != expectPostings {
		return fmt.Errorf("property index has %d postings, queue scan expects %d", ms.propIndex.Len(), expectPostings)
	}
	// Session heap: every record decodes, and the newest on-disk version of
	// each key matches the in-memory snapshot the gateway trusts.
	best := map[sessionKey]uint64{}
	var scanErr error
	err := ms.ps.Scan(ms.sessionsHeap, func(rid store.RID, data []byte) bool {
		ver, s, err := decodeSession(data)
		if err != nil {
			scanErr = fmt.Errorf("session record %s does not decode: %w", rid, err)
			return false
		}
		key := sessionKey{kind: s.Kind, endpoint: s.Endpoint, peer: s.Peer}
		if ver > best[key] {
			best[key] = ver
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return err
	}
	ms.sessMu.Lock()
	for key, ver := range best {
		e := ms.sessions[key]
		if e == nil || e.ver != ver {
			ms.sessMu.Unlock()
			return fmt.Errorf("session %v/%q/%q: on-disk version %d not the published snapshot", key.kind, key.endpoint, key.peer, ver)
		}
	}
	ms.sessMu.Unlock()
	return ms.ps.VerifyPageLSNs()
}

// DiskError reports the underlying page store's sticky I/O error, if any;
// the engine polls it to detect a dead device and enter degraded mode.
func (ms *Store) DiskError() error { return ms.ps.DiskError() }
