package msgstore

import (
	"fmt"

	"demaq/internal/store"
)

// CollectPass is one retention pass over the store: the collector's removal
// of processed messages no live slice holds (Sec. 2.3.3), and of the reset
// records that dismiss nothing any more. Remove takes messages out of memory
// at once; Commit deletes everything the pass gathered, from every queue, in
// one page-store transaction of redo-only batch deletes (Sec. 4.1) — one log
// flush per pass, however many queues had garbage.
//
// The log order of that transaction is what a crash may keep of it: any
// durable prefix is replayed. Payload deletes come first, then status
// deletes, then reset deletes. A prefix that lost status deletes leaves
// orphan status records, which loadQueue's join never matches and whose ids
// it never hands out again (the reverse would leave payloads without a
// status record, which Open refuses). A prefix that lost reset deletes keeps
// a reset whose messages are gone, which the next pass prunes again; no
// prefix has a reset gone and a message it dismissed back. What a crash
// loses of the pass comes back processed, for the next pass to collect.
//
// A pass is used by one goroutine and committed once.
type CollectPass struct {
	ms     *Store
	queues []stagedDeletes // persistent queues, in staging order
	resets []store.RID
}

// stagedDeletes are the records of one queue's removed messages.
type stagedDeletes struct {
	q                  *Queue
	payloads, statuses []store.RID
}

// BeginCollect starts a retention pass.
func (ms *Store) BeginCollect() *CollectPass { return &CollectPass{ms: ms} }

// Remove unlinks messages of a queue from memory — the id shards, the
// document cache, the property index and the queue's list — and stages the
// deletes of their records for Commit. Ids of other queues and of messages
// already removed are skipped. It returns how many messages it removed.
func (p *CollectPass) Remove(queue string, ids []MsgID) (int, error) {
	ms := p.ms
	q := ms.getQueue(queue)
	if q == nil {
		return 0, fmt.Errorf("msgstore: unknown queue %q", queue)
	}
	var dropped []*msgMeta
	for _, id := range ids {
		sh := ms.shard(id)
		sh.mu.Lock()
		m := sh.byID[id]
		if m == nil || m.q != q {
			sh.mu.Unlock()
			continue
		}
		delete(sh.byID, id)
		sh.mu.Unlock()
		if !m.dead.CompareAndSwap(false, true) {
			continue
		}
		dropped = append(dropped, m)
		ms.cache.drop(id)
	}
	if len(dropped) == 0 {
		return 0, nil
	}
	// Postings come out after the shard locks are released (same nesting
	// discipline as indexing at commit). A probe between the CAS and this
	// point sees the stale posting but filters it through lookup, which
	// already misses: the id left the shard map above.
	for _, m := range dropped {
		ms.unindexMessage(m)
	}
	q.mu.Lock()
	q.live -= len(dropped)
	// Compact the in-memory slice when dead entries dominate.
	if len(q.msgs) > 64 && q.live*2 < len(q.msgs) {
		livemsgs := make([]*msgMeta, 0, q.live)
		for _, m := range q.msgs {
			if !m.dead.Load() {
				livemsgs = append(livemsgs, m)
			}
		}
		q.msgs = livemsgs
	}
	q.mu.Unlock()
	if q.Mode == Persistent {
		sd := stagedDeletes{q: q, payloads: make([]store.RID, len(dropped)), statuses: make([]store.RID, len(dropped))}
		for i, m := range dropped {
			sd.payloads[i], sd.statuses[i] = m.rid, m.statusRID
		}
		p.queues = append(p.queues, sd)
	}
	return len(dropped), nil
}

// DeleteResets stages the deletes of reset records nothing depends on any
// more; zero RIDs (events never written) are skipped.
func (p *CollectPass) DeleteResets(rids []store.RID) {
	for _, rid := range rids {
		if rid != (store.RID{}) {
			p.resets = append(p.resets, rid)
		}
	}
}

// Commit deletes what the pass staged in one page-store transaction, in the
// log order the type's comment argues for, and waits for its one flush. A
// pass that staged nothing does nothing.
func (p *CollectPass) Commit() error {
	if len(p.queues) == 0 && len(p.resets) == 0 {
		return nil
	}
	t := p.ms.ps.Begin()
	if err := p.stage(t); err != nil {
		t.Abort()
		return err
	}
	return t.Commit()
}

func (p *CollectPass) stage(t *store.Txn) error {
	for _, sd := range p.queues {
		if err := t.BatchDelete(sd.q.heap, sd.payloads); err != nil {
			return err
		}
	}
	for _, sd := range p.queues {
		if err := t.BatchDelete(sd.q.statusHeap, sd.statuses); err != nil {
			return err
		}
	}
	return t.BatchDelete(p.ms.resetsHeap, p.resets)
}
