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
	// slice has overtaken, until PruneResets deletes them.
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

// Removable reports whether a processed message may be physically deleted:
// it must belong to no live slice (Sec. 2.3.3). Messages that were never in
// any slice are removable once processed.
func (m *Manager) Removable(id msgstore.MsgID) bool { return len(m.SlicesOf(id)) == 0 }

// CollectQueue scans the processed messages of a queue and physically
// removes those no longer held by any live slice, using the redo-only batch
// delete. It returns the number of messages removed. This is the background
// task of Sec. 4.4.2; it runs decoupled from message
// processing, but a reader that lists the queue and then fetches what it
// listed must be kept out for the duration (the engine holds the queue's
// exclusive lock around the call).
func (m *Manager) CollectQueue(queue string) (int, error) {
	msgs, err := m.ms.Messages(queue)
	if err != nil {
		return 0, err
	}
	var removable []msgstore.MsgID
	for _, msg := range msgs {
		if msg.Processed && len(m.memberships(msg.ID, queue, msg.Props)) == 0 {
			removable = append(removable, msg.ID)
		}
	}
	if len(removable) == 0 {
		return 0, nil
	}
	if err := m.ms.Remove(queue, removable); err != nil {
		return 0, err
	}
	return len(removable), nil
}

// PruneResets forgets every reset that dismisses no message any more: a
// watermark is needed only while a member at or below it is still stored,
// and message ids never come back. The collector calls it after its
// CollectQueue round, so the deletes of the dismissed messages are in the
// log ahead of the delete of the reset records: whatever a crash keeps of
// the round, no dismissed message comes back without its reset. A record
// that outlives its map entry is replayed at the next start and pruned again.
func (m *Manager) PruneResets() error {
	m.mu.Lock()
	dead := m.superseded
	m.superseded = nil
	for mb, lt := range m.resets {
		s, ok := m.slicings[mb.Slicing]
		if ok && len(m.members(s.Property, mb.Key, 0, lt.watermark)) == 0 {
			delete(m.resets, mb)
			dead = append(dead, lt.record)
		}
	}
	m.mu.Unlock()
	return m.ms.DeleteResets(dead)
}
