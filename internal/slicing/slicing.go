// Package slicing implements Demaq slicings (paper Sec. 2.3): families of
// virtual queues that group messages across physical queues by the value of
// a property (the slice key). Slices have lifetimes delimited by reset
// operations; a message is visible in a slice only if it was added after
// the last reset, and the retention rule guarantees a processed message is
// physically removable only once it belongs to no live slice (Sec. 2.3.3).
//
// The manager supports two implementations of slice access, the subject of
// experiment E1:
//
//   - materialized: a B+tree index keyed (slicing, key, msgID), maintained
//     on enqueue — the paper's "physical representation of the slices ...
//     using a B-Tree indexed by the slice key" (Sec. 4.3);
//   - merged: no index; each access re-evaluates the slice definition by
//     scanning the queues the slicing property is defined on, the
//     "merging the slice definition into the rules" baseline.
//
// Slice state is derived data rebuilt on startup from the message store;
// resets are persisted as watermark events so slice visibility survives
// restarts.
package slicing

import (
	"sort"
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

// membership records that a message belongs to a slice.
type membership struct {
	slicing string
	key     string
}

// Manager tracks slice membership, lifetimes and retention.
type Manager struct {
	mu        sync.RWMutex
	ms        *msgstore.Store
	props     *property.Manager
	slicings  map[string]*Slicing
	byProp    map[string][]*Slicing
	index     *store.BTree // IndexKey(msgID, slicing, key) → nil
	memberOf  map[msgstore.MsgID][]membership
	watermark map[string]msgstore.MsgID // slicing \x00 key → last reset watermark

	materialized bool
}

// NewManager creates a slicing manager. materialized selects the indexed
// implementation (the default and the paper's recommendation).
func NewManager(ms *msgstore.Store, props *property.Manager, materialized bool) *Manager {
	return &Manager{
		ms:           ms,
		props:        props,
		slicings:     map[string]*Slicing{},
		byProp:       map[string][]*Slicing{},
		index:        store.NewBTree(),
		memberOf:     map[msgstore.MsgID][]membership{},
		watermark:    map[string]msgstore.MsgID{},
		materialized: materialized,
	}
}

// SetMaterialized switches the slice access implementation (E1 ablation).
func (m *Manager) SetMaterialized(on bool) { m.materialized = on }

// Materialized reports the current implementation.
func (m *Manager) Materialized() bool { return m.materialized }

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

// Get returns a slicing by name.
func (m *Manager) Get(name string) (*Slicing, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s, ok := m.slicings[name]
	return s, ok
}

// Names lists declared slicings.
func (m *Manager) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.slicings))
	for n := range m.slicings {
		out = append(out, n)
	}
	return out
}

func sliceID(slicing, key string) string { return slicing + "\x00" + key }

// indexKey builds the B-tree key of one membership row using the shared
// length-prefixed codec. The previous "\x00"-separated layout was ambiguous:
// a slice key embedding NUL made one slice's prefix cover another's rows
// (slicing "s", key "k\x00x" collided with slicing "s\x00k", key "x"), so
// ScanPrefix leaked entries across (slicing, key) pairs. Length prefixes are
// prefix-free for any byte content.
func indexKey(slicing, key string, id msgstore.MsgID) []byte {
	return store.IndexKey(uint64(id), slicing, key)
}

// OnEnqueue records slice memberships for a newly committed message, based
// on its evaluated properties. The engine calls it while holding the locks
// of the affected slices.
func (m *Manager) OnEnqueue(id msgstore.MsgID, queue string, props map[string]xdm.Value) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for propName, v := range props {
		slicings := m.byProp[propName]
		if len(slicings) == 0 {
			continue
		}
		// Membership requires a declared property defined on this queue.
		// An undeclared property must not form a slice: the merged path
		// re-derives membership by scanning def.Queues(), so anything it
		// cannot see must not be materialized either, or the two E1
		// implementations diverge.
		def, ok := m.props.Def(propName)
		if !ok {
			continue
		}
		if _, onQueue := def.PerQueue[queue]; !onQueue {
			continue
		}
		key := v.StringValue()
		for _, s := range slicings {
			if m.materialized {
				m.index.Insert(indexKey(s.Name, key, id), nil)
			}
			m.memberOf[id] = append(m.memberOf[id], membership{slicing: s.Name, key: key})
		}
	}
}

// OnRemove drops index entries of physically deleted messages.
func (m *Manager) OnRemove(ids []msgstore.MsgID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range ids {
		for _, mb := range m.memberOf[id] {
			m.index.Delete(indexKey(mb.slicing, mb.key, id))
		}
		delete(m.memberOf, id)
	}
}

// SliceMembers returns the IDs of messages visible in the slice (current
// lifetime only), in enqueue order.
func (m *Manager) SliceMembers(slicing, key string) []msgstore.MsgID {
	m.mu.RLock()
	s, ok := m.slicings[slicing]
	if !ok {
		m.mu.RUnlock()
		return nil
	}
	if m.materialized {
		// Watermark read and index scan happen under the same lock
		// acquisition. Reading the watermark under one RLock and scanning
		// under a second let a concurrent Reset land in the gap, returning
		// members of the new lifetime filtered by the old lifetime's
		// watermark.
		wm := m.watermark[sliceID(slicing, key)]
		var out []msgstore.MsgID
		m.index.ScanPrefix(store.IndexKeyPrefix(slicing, key), func(k, _ []byte) bool {
			if id := msgstore.MsgID(store.IndexKeyID(k)); id > wm {
				out = append(out, id)
			}
			return true
		})
		m.mu.RUnlock()
		return out
	}
	wm := m.watermark[sliceID(slicing, key)]
	prop := s.Property
	m.mu.RUnlock()

	// Merged evaluation: re-derive the slice from the message store. With
	// the store's property index this is one contiguous (property, value)
	// range scan already bounded below by the watermark, filtered to the
	// queues the property is defined on; without it, the unindexed E1
	// baseline scans every such queue.
	def, ok := m.props.Def(prop)
	if !ok {
		return nil
	}
	if m.ms.PropertyIndexEnabled() {
		ids := m.ms.PropertyIDsAfter(prop, key, wm, nil)
		out := ids[:0]
		for _, id := range ids {
			if msg, live := m.ms.Get(id); live {
				if _, onQueue := def.PerQueue[msg.Queue]; onQueue {
					out = append(out, id)
				}
			}
		}
		return out // index scans ascend by id, so enqueue order is free
	}
	var out []msgstore.MsgID
	for _, queue := range def.Queues() {
		msgs, err := m.ms.Messages(queue)
		if err != nil {
			continue
		}
		for _, msg := range msgs {
			if v, ok := msg.Props[prop]; ok && v.StringValue() == key && msg.ID > wm {
				out = append(out, msg.ID)
			}
		}
	}
	sortIDs(out)
	return out
}

func sortIDs(ids []msgstore.MsgID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// SlicesOf returns the (slicing, key) pairs the message belongs to,
// restricted to current lifetimes.
func (m *Manager) SlicesOf(id msgstore.MsgID) []struct{ Slicing, Key string } {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []struct{ Slicing, Key string }
	for _, mb := range m.memberOf[id] {
		if id > m.watermark[sliceID(mb.slicing, mb.key)] {
			out = append(out, struct{ Slicing, Key string }{mb.slicing, mb.key})
		}
	}
	return out
}

// Reset begins a new lifetime for a slice: messages at or below the
// watermark disappear from slice view and become retention-eligible.
// The watermark is the message-store ID high-water mark at reset time.
func (m *Manager) Reset(slicing, key string, watermark msgstore.MsgID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sid := sliceID(slicing, key)
	if watermark > m.watermark[sid] {
		m.watermark[sid] = watermark
	}
}

// Watermark returns the current reset watermark for a slice.
func (m *Manager) Watermark(slicing, key string) msgstore.MsgID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.watermark[sliceID(slicing, key)]
}

// Removable reports whether a processed message may be physically deleted:
// it must belong to no live slice (Sec. 2.3.3). Messages that were never in
// any slice are removable once processed.
func (m *Manager) Removable(id msgstore.MsgID) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, mb := range m.memberOf[id] {
		if id > m.watermark[sliceID(mb.slicing, mb.key)] {
			return false
		}
	}
	return true
}

// CollectQueue scans the processed messages of a queue and physically
// removes those no longer held by any live slice, using the redo-only batch
// delete. It returns the number of messages removed. This is the background
// task of Sec. 4.4.2; it runs decoupled from message
// processing, but a reader that lists the queue and then fetches what it
// listed must be kept out for the duration (the engine holds the queue's
// exclusive lock around the call).
func (m *Manager) CollectQueue(queue string) (int, error) {
	removable := m.removableSet(m.ms.ProcessedIDs(queue))
	if len(removable) == 0 {
		return 0, nil
	}
	if err := m.ms.Remove(queue, removable); err != nil {
		return 0, err
	}
	m.OnRemove(removable)
	return len(removable), nil
}

// removableSet filters ids down to those no longer held by any live slice
// under one lock acquisition — the GC candidate pass over a whole queue used
// to pay an RLock round-trip per message via Removable.
func (m *Manager) removableSet(ids []msgstore.MsgID) []msgstore.MsgID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []msgstore.MsgID
	for _, id := range ids {
		held := false
		for _, mb := range m.memberOf[id] {
			if id > m.watermark[sliceID(mb.slicing, mb.key)] {
				held = true
				break
			}
		}
		if !held {
			out = append(out, id)
		}
	}
	return out
}

// Rebuild reconstructs memberships and the index from the message store
// (startup path: slice state is derived data).
func (m *Manager) Rebuild() error {
	m.mu.Lock()
	m.index = store.NewBTree()
	m.memberOf = map[msgstore.MsgID][]membership{}
	m.mu.Unlock()
	for _, queue := range m.ms.QueueNames() {
		msgs, err := m.ms.Messages(queue)
		if err != nil {
			return err
		}
		for _, msg := range msgs {
			m.OnEnqueue(msg.ID, queue, msg.Props)
		}
	}
	return nil
}
