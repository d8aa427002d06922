// Package slicing implements Demaq slicings (paper Sec. 2.3): families of
// virtual queues that group messages across physical queues by the value of
// a property (the slice key). Slices have lifetimes delimited by reset
// operations; a message is visible in a slice only if it was added after
// the last reset, and the retention rule guarantees a processed message is
// physically removable only once it belongs to no live slice (Sec. 2.3.3).
//
// A slice is a derived relation — the messages that carry the slicing
// property with the slice key, on a queue whose messages join the slicing
// (the property is defined on it; rule.Graph decides this once), above
// the slice's reset watermark — and the manager is a view of it that stores
// no membership. The members of a slice are a range of the message store's
// property index, keyed (property, value, msgID): the paper's "physical
// representation of the slices ... using a B-Tree indexed by the slice key"
// (Sec. 4.3), which the store keeps for every property. The slices of a
// message follow from its queue and its properties. On a store that keeps no
// index (msgstore.Options.NoPropertyIndex) members are found by scanning the
// queues instead: the reference the index is tested against, and experiment
// E1's "merging the slice definition into the rules" baseline.
//
// The one piece of state is the reset watermarks. They are replayed at
// start-up from the events the message store persists, and forgotten again,
// record and all, once the collector has removed every message they dismiss.
package slicing

import (
	"slices"
	"sync"

	"demaq/internal/msgstore"
	"demaq/internal/rule"
	"demaq/internal/store"
	"demaq/internal/xdm"
)

// Membership names one slice: a slicing and a slice key.
type Membership struct{ Slicing, Key string }

// lifetime is the reset state of one slice: its members at or below the
// watermark are dismissed, and record is the persisted event that says so.
type lifetime struct {
	watermark msgstore.MsgID
	record    store.RID
}

// Manager answers slice membership, lifetime and retention questions. Which
// slicings a queue's messages join, and over which property, it reads from
// the program's dependency graph.
type Manager struct {
	mu     sync.RWMutex
	ms     *msgstore.Store
	g      *rule.Graph
	resets map[Membership]lifetime
	// superseded holds the records of resets that a later reset of the same
	// slice has overtaken, until a retention pass deletes them.
	superseded []store.RID
}

// NewManager creates a slicing manager over a message store for the
// slicings of a program's graph.
func NewManager(ms *msgstore.Store, g *rule.Graph) *Manager {
	return &Manager{ms: ms, g: g, resets: map[Membership]lifetime{}}
}

// Memberships returns the slices a new message in queue with these properties
// joins, in a fixed order. The engine locks them before it publishes the
// message.
func (m *Manager) Memberships(queue string, props map[string]xdm.Value) []Membership {
	return m.memberships(^msgstore.MsgID(0), queue, props)
}

// SlicesOf returns the slices a stored message belongs to, restricted to
// current lifetimes.
func (m *Manager) SlicesOf(id msgstore.MsgID) []Membership {
	msg, ok := m.ms.Get(id)
	if !ok {
		return nil
	}
	return m.memberships(id, msg.Queue, msg.Props)
}

// memberships lists the slices message id in queue with these properties is
// a live member of, ordered by slicing: one per slicing the queue's messages
// join whose property the message carries, unless a reset has dismissed it.
// A message still to be published passes the highest id — it is above every
// watermark.
func (m *Manager) memberships(id msgstore.MsgID, queue string, props map[string]xdm.Value) []Membership {
	joins := m.g.Queues[queue].Joins
	if len(joins) == 0 {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Membership
	for _, s := range joins {
		if v, ok := props[m.g.SlicingProps[s]]; ok {
			if mb := (Membership{s, v.StringValue()}); id > m.resets[mb].watermark {
				out = append(out, mb)
			}
		}
	}
	return out
}

// SliceMembers returns the IDs of messages visible in the slice (current
// lifetime only), in enqueue order. The watermark is read and the members
// are listed under one lock acquisition: a Reset landing in between would
// show members of the new lifetime next to ones it dismissed.
func (m *Manager) SliceMembers(slicing, key string) []msgstore.MsgID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.g.SlicingProps[slicing]; !ok {
		return nil
	}
	return m.members(slicing, key, m.resets[Membership{slicing, key}].watermark+1, ^msgstore.MsgID(0))
}

// members lists the live messages with lo <= id <= hi of the slice (slicing,
// key) on the queues whose messages join slicing, ascending: one contiguous
// range of the property index, or the scan of those queues on a store that
// keeps none.
func (m *Manager) members(slicing, key string, lo, hi msgstore.MsgID) []msgstore.MsgID {
	prop := m.g.SlicingProps[slicing]
	if m.ms.PropertyIndexEnabled() {
		ids := m.ms.PropertyIDsRange(prop, key, lo, hi, nil)
		out := ids[:0]
		for _, id := range ids {
			if queue, live := m.ms.QueueOf(id); live && slices.Contains(m.g.Queues[queue].Joins, slicing) {
				out = append(out, id)
			}
		}
		return out // index scans ascend by id, so enqueue order is free
	}
	var out []msgstore.MsgID
	for _, queue := range m.ms.QueueNames() {
		if !slices.Contains(m.g.Queues[queue].Joins, slicing) {
			continue
		}
		msgs, _ := m.ms.Messages(queue) // fails for an unknown queue only
		for _, msg := range msgs {
			if v, ok := msg.Props[prop]; ok && v.StringValue() == key && lo <= msg.ID && msg.ID <= hi {
				out = append(out, msg.ID)
			}
		}
	}
	slices.Sort(out) // the scan went queue by queue
	return out
}

// Reset begins a new lifetime for a slice: messages at or below the event's
// watermark — the message-store ID high-water mark at reset time — disappear
// from slice view and become retention-eligible.
func (m *Manager) Reset(ev msgstore.ResetEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb := Membership{ev.Slicing, ev.Key}
	if cur, ok := m.resets[mb]; ok {
		if ev.Watermark <= cur.watermark {
			m.superseded = append(m.superseded, ev.RID)
			return
		}
		m.superseded = append(m.superseded, cur.record)
	}
	m.resets[mb] = lifetime{watermark: ev.Watermark, record: ev.RID}
}

// Pass is one retention pass (Sec. 2.3.3): Collect picks and unlinks the
// garbage of each queue, Commit deletes it and the resets that dismiss
// nothing any more from disk in one page-store transaction (see
// msgstore.CollectPass). This is the background task of Sec. 4.4.2; it runs
// decoupled from message processing, but a reader that lists a queue and
// then fetches what it listed must be kept out while Collect runs on that
// queue (the engine holds the queue's exclusive lock around the call).
type Pass struct {
	m  *Manager
	cp *msgstore.CollectPass
}

// BeginPass starts a retention pass.
func (m *Manager) BeginPass() *Pass { return &Pass{m: m, cp: m.ms.BeginCollect()} }

// Collect removes the processed messages of a queue that no live slice
// holds from memory and stages their deletes. It returns how many it took.
func (p *Pass) Collect(queue string) (int, error) {
	msgs, err := p.m.ms.Messages(queue)
	if err != nil {
		return 0, err
	}
	return p.cp.Remove(queue, p.m.removable(queue, msgs))
}

// removable lists the processed messages of queue that belong to no live
// slice (Sec. 2.3.3); messages never in any slice are removable once
// processed. A reset landing meanwhile only dismisses more: a message it
// frees is taken by the next pass.
func (m *Manager) removable(queue string, msgs []msgstore.Message) []msgstore.MsgID {
	var out []msgstore.MsgID
	for _, msg := range msgs {
		if msg.Processed && m.memberships(msg.ID, queue, msg.Props) == nil {
			out = append(out, msg.ID)
		}
	}
	return out
}

// Commit stages the deletes of every reset that dismisses no message any
// more and commits the pass. A watermark is needed only while a member at
// or below it is still stored, and message ids never come back; the records
// of resets a later reset of the same slice overtook go too. The reset
// deletes follow the message deletes in the pass's one log write, so
// whatever a crash keeps of it, no dismissed message comes back without its
// reset. A record that outlives its map entry is replayed at the next start
// and pruned again.
func (p *Pass) Commit() error {
	p.cp.DeleteResets(p.m.prune())
	return p.cp.Commit()
}

// prune forgets the resets that dismiss no stored message and returns their
// records, with the superseded ones. A reset of a slicing the program no
// longer declares dismisses nothing it can read; kept, it would be replayed
// at every open and dismiss the members of a slicing of that name a later
// program declares again.
func (m *Manager) prune() []store.RID {
	m.mu.Lock()
	defer m.mu.Unlock()
	dead := m.superseded
	m.superseded = nil
	for mb, lt := range m.resets {
		if _, ok := m.g.SlicingProps[mb.Slicing]; !ok || len(m.members(mb.Slicing, mb.Key, 0, lt.watermark)) == 0 {
			delete(m.resets, mb)
			dead = append(dead, lt.record)
		}
	}
	return dead
}
