// Package slicing implements Demaq slicings (paper Sec. 2.3): families of
// virtual queues that group messages across physical queues by the value of
// a property (the slice key). Slices have lifetimes delimited by reset
// operations; a message is visible in a slice only if it was added after
// the last reset, and the retention rule guarantees a processed message is
// physically removable only once it belongs to no live slice (Sec. 2.3.3).
//
// A slice is a derived relation — the messages that carry the slicing
// property with the slice key, on a queue the property is defined on, above
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
	"cmp"
	"slices"
	"strings"
	"sync"

	"demaq/internal/msgstore"
	"demaq/internal/property"
	"demaq/internal/store"
	"demaq/internal/xdm"
)

// Slicing is one slicing declaration.
type Slicing struct {
	Name     string
	Property string
}

// Membership names one slice: a slicing and a slice key.
type Membership struct{ Slicing, Key string }

// lifetime is the reset state of one slice: its members at or below the
// watermark are dismissed, and record is the persisted event that says so.
type lifetime struct {
	watermark msgstore.MsgID
	record    store.RID
}

// Manager answers slice membership, lifetime and retention questions.
type Manager struct {
	mu       sync.RWMutex
	ms       *msgstore.Store
	props    *property.Manager
	slicings map[string]*Slicing
	byProp   map[string][]*Slicing
	resets   map[Membership]lifetime
	// superseded holds the records of resets that a later reset of the same
	// slice has overtaken, until a retention pass deletes them.
	superseded []store.RID
}

// NewManager creates a slicing manager over a message store.
func NewManager(ms *msgstore.Store, props *property.Manager) *Manager {
	return &Manager{
		ms:       ms,
		props:    props,
		slicings: map[string]*Slicing{},
		byProp:   map[string][]*Slicing{},
		resets:   map[Membership]lifetime{},
	}
}

// Define registers a slicing over a property.
func (m *Manager) Define(name, prop string) *Slicing {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.slicings[name]; ok {
		return s
	}
	s := &Slicing{Name: name, Property: prop}
	m.slicings[name] = s
	m.byProp[prop] = append(m.byProp[prop], s)
	return s
}

// slicedOn is the membership rule: a property value puts a message into a
// slice only if the property is declared and defined on the message's queue.
// A value that merely travelled there — inherited, or set by the enqueuing
// rule — forms no slice.
func (m *Manager) slicedOn(prop, queue string) bool {
	def, ok := m.props.Def(prop)
	if !ok {
		return false
	}
	_, onQueue := def.PerQueue[queue]
	return onQueue
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
// a live member of: one per slicing over each sliced property it carries,
// unless a reset has dismissed it. A message still to be published passes
// the highest id — it is above every watermark.
func (m *Manager) memberships(id msgstore.MsgID, queue string, props map[string]xdm.Value) []Membership {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Membership
	for prop, slicings := range m.byProp {
		v, ok := props[prop]
		if !ok || !m.slicedOn(prop, queue) {
			continue
		}
		key := v.StringValue()
		for _, s := range slicings {
			if mb := (Membership{s.Name, key}); id > m.resets[mb].watermark {
				out = append(out, mb)
			}
		}
	}
	slices.SortFunc(out, func(a, b Membership) int {
		return cmp.Or(strings.Compare(a.Slicing, b.Slicing), strings.Compare(a.Key, b.Key))
	})
	return out
}

// SliceMembers returns the IDs of messages visible in the slice (current
// lifetime only), in enqueue order. The watermark is read and the members
// are listed under one lock acquisition: a Reset landing in between would
// show members of the new lifetime next to ones it dismissed.
func (m *Manager) SliceMembers(slicing, key string) []msgstore.MsgID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.slicings[slicing]
	if !ok {
		return nil
	}
	return m.members(s.Property, key, m.resets[Membership{slicing, key}].watermark+1, ^msgstore.MsgID(0))
}

// members lists the live messages with lo <= id <= hi that carry key as
// their value of prop on a queue prop is defined on, ascending: one
// contiguous range of the property index, or the scan of those queues on a
// store that keeps none.
func (m *Manager) members(prop, key string, lo, hi msgstore.MsgID) []msgstore.MsgID {
	if m.ms.PropertyIndexEnabled() {
		ids := m.ms.PropertyIDsRange(prop, key, lo, hi, nil)
		out := ids[:0]
		for _, id := range ids {
			if msg, live := m.ms.Get(id); live && m.slicedOn(prop, msg.Queue) {
				out = append(out, id)
			}
		}
		return out // index scans ascend by id, so enqueue order is free
	}
	var out []msgstore.MsgID
	for _, queue := range m.ms.QueueNames() {
		if !m.slicedOn(prop, queue) {
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
// processed. The queue's sliced properties are resolved once, under one
// read lock, and a message is kept at its first live membership.
func (m *Manager) removable(queue string, msgs []msgstore.Message) []msgstore.MsgID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var sliced []slicedProp
	for prop, slicings := range m.byProp {
		if m.slicedOn(prop, queue) {
			sliced = append(sliced, slicedProp{prop, slicings})
		}
	}
	var out []msgstore.MsgID
	for _, msg := range msgs {
		if msg.Processed && !m.heldLocked(msg, sliced) {
			out = append(out, msg.ID)
		}
	}
	return out
}

// slicedProp is a property sliced on some queue, with its slicings.
type slicedProp struct {
	name     string
	slicings []*Slicing
}

// heldLocked reports whether a live slice over one of the sliced properties
// holds msg. The caller holds m.mu.
func (m *Manager) heldLocked(msg msgstore.Message, sliced []slicedProp) bool {
	for _, prop := range sliced {
		v, ok := msg.Props[prop.name]
		if !ok {
			continue
		}
		key := v.StringValue()
		for _, s := range prop.slicings {
			if msg.ID > m.resets[Membership{s.Name, key}].watermark {
				return true
			}
		}
	}
	return false
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
// records, with the superseded ones.
func (m *Manager) prune() []store.RID {
	m.mu.Lock()
	defer m.mu.Unlock()
	dead := m.superseded
	m.superseded = nil
	for mb, lt := range m.resets {
		s, ok := m.slicings[mb.Slicing]
		if ok && len(m.members(s.Property, mb.Key, 0, lt.watermark)) == 0 {
			delete(m.resets, mb)
			dead = append(dead, lt.record)
		}
	}
	return dead
}
