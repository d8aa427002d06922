package store

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// BTree is an in-memory B+tree over []byte keys, the index structure behind
// materialized slices and scheduler state (paper Sec. 4.3: "similar to the
// materialized views concept ... for example using a B-Tree indexed by the
// slice key"). Demaq indexes are derived data: they are rebuilt from the
// logged heaps at startup rather than logged themselves, so the tree keeps
// no page images or WAL hooks. A rebuild sorts its keys once and builds
// the tree bottom-up (NewBTreeSorted); live Inserts and Deletes work on
// that tree as on one grown by inserts.
//
// The tree is safe for concurrent use with reader parallelism: a
// root-level reader/writer lock admits any number of concurrent
// readers, and leaf-level latches let non-splitting inserts and lazy
// deletes run under the shared root lock too — writers go exclusive only
// for structure modifications (splits). Interior nodes and leaf chain
// pointers change only under the exclusive root lock, so readers holding
// the shared lock navigate them without latching; leaf key/value slices
// are read and written under the leaf latch. Scan callbacks run while a
// leaf latch is held and must not call back into the same tree.
//
// Keys are unique; Insert overwrites. Values are opaque bytes. The zero
// value is not usable; call NewBTree.
type BTree struct {
	latch  sync.RWMutex // root lock: shared for navigation, exclusive for splits
	root   *btNode
	degree int
	size   atomic.Int64
}

// btNode is a B+tree node. Leaves hold vals and are chained via next.
// The mu latch guards keys/vals of leaves; interior nodes are only
// modified under the tree's exclusive root lock and need no latch.
type btNode struct {
	mu   sync.Mutex
	leaf bool
	keys [][]byte
	// interior: len(children) == len(keys)+1
	children []*btNode
	// leaf payloads
	vals [][]byte
	next *btNode
}

// NewBTree returns an empty tree with at most 127 keys per node.
func NewBTree() *BTree { return &BTree{root: &btNode{leaf: true}, degree: 64} }

// bulkFill is how many keys NewBTreeSorted puts in a leaf, and how many
// children in an interior node: three quarters of a node's capacity, so the
// inserts that follow a rebuild split a node only after a quarter of it
// has filled, as they would in a tree grown by inserts.
const bulkFill = 96

// NewBTreeSorted builds a tree from strictly ascending keys, bottom-up: the
// keys are cut into leaves of about bulkFill keys, and each interior level
// into nodes of about bulkFill children, with the first key of every child
// but the first as separator. vals holds the value of each key, or is nil
// for nil values. The tree takes ownership of both slices and of the key
// bytes, which must not be changed afterwards. Keys out of order panic.
func NewBTreeSorted(keys, vals [][]byte) *BTree {
	t := NewBTree()
	n := len(keys)
	if n == 0 {
		return t
	}
	for i := 1; i < n; i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			panic("store: NewBTreeSorted: keys not strictly ascending")
		}
	}
	if vals == nil {
		vals = make([][]byte, n)
	}
	level := make([]*btNode, (n+bulkFill-1)/bulkFill)
	first := make([][]byte, len(level)) // the smallest key under each node
	for i := range level {
		lo, hi := i*n/len(level), (i+1)*n/len(level)
		// Capped windows: an insert into a leaf reallocates rather than
		// writing into its neighbour's keys.
		level[i] = &btNode{leaf: true, keys: keys[lo:hi:hi], vals: vals[lo:hi:hi]}
		first[i] = keys[lo]
		if i > 0 {
			level[i-1].next = level[i]
		}
	}
	for len(level) > 1 {
		up := make([]*btNode, (len(level)+bulkFill-1)/bulkFill)
		upFirst := make([][]byte, len(up))
		for i := range up {
			lo, hi := i*len(level)/len(up), (i+1)*len(level)/len(up)
			up[i] = &btNode{
				keys:     append([][]byte(nil), first[lo+1:hi]...),
				children: append([]*btNode(nil), level[lo:hi]...),
			}
			upFirst[i] = first[lo]
		}
		level, first = up, upFirst
	}
	t.root = level[0]
	t.size.Store(int64(n))
	return t
}

// Len returns the number of keys.
func (t *BTree) Len() int { return int(t.size.Load()) }

func (n *btNode) findKey(key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
	return lo, found
}

// childIndex returns the child to descend into for key.
func (n *btNode) childIndex(key []byte) int {
	i, found := n.findKey(key)
	if found {
		return i + 1 // separator keys equal the smallest key of the right subtree
	}
	return i
}

// descend walks interior nodes to the leaf for key; the caller holds the
// root lock (shared or exclusive), under which interior nodes are stable.
func (t *BTree) descend(key []byte) *btNode {
	n := t.root
	for !n.leaf {
		n = n.children[n.childIndex(key)]
	}
	return n
}

// Get returns the value for key.
func (t *BTree) Get(key []byte) ([]byte, bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	n := t.descend(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	i, found := n.findKey(key)
	if !found {
		return nil, false
	}
	return n.vals[i], true
}

// Insert sets key to val, returning whether the key was new. The fast path
// — the leaf has room — runs under the shared root lock with only the leaf
// latched; a full leaf escalates to the exclusive root lock and splits.
func (t *BTree) Insert(key, val []byte) bool {
	key = append([]byte(nil), key...)
	maxKeys := 2*t.degree - 1

	t.latch.RLock()
	n := t.descend(key)
	n.mu.Lock()
	if len(n.keys) < maxKeys {
		inserted := n.leafInsert(key, val)
		n.mu.Unlock()
		t.latch.RUnlock()
		if inserted {
			t.size.Add(1)
		}
		return inserted
	}
	// Overwrites of existing keys fit without splitting even in a full leaf.
	if i, found := n.findKey(key); found {
		n.vals[i] = val
		n.mu.Unlock()
		t.latch.RUnlock()
		return false
	}
	n.mu.Unlock()
	t.latch.RUnlock()

	// Split path: exclusive over the whole structure.
	t.latch.Lock()
	defer t.latch.Unlock()
	if len(t.root.keys) == maxKeys {
		old := t.root
		t.root = &btNode{children: []*btNode{old}}
		t.splitChild(t.root, 0)
	}
	inserted := t.insertNonFull(t.root, key, val)
	if inserted {
		t.size.Add(1)
	}
	return inserted
}

// leafInsert places key/val in a leaf with room; caller holds the leaf
// latch. Returns whether the key was new.
func (n *btNode) leafInsert(key, val []byte) bool {
	i, found := n.findKey(key)
	if found {
		n.vals[i] = val
		return false
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.vals = append(n.vals, nil)
	copy(n.vals[i+1:], n.vals[i:])
	n.vals[i] = val
	return true
}

// insertNonFull is the exclusive-lock insertion path (splits allowed).
func (t *BTree) insertNonFull(n *btNode, key, val []byte) bool {
	if n.leaf {
		return n.leafInsert(key, val)
	}
	ci := n.childIndex(key)
	if len(n.children[ci].keys) == 2*t.degree-1 {
		t.splitChild(n, ci)
		if bytes.Compare(key, n.keys[ci]) >= 0 {
			ci++
		}
	}
	return t.insertNonFull(n.children[ci], key, val)
}

// splitChild splits the full child at index ci of interior node n; the
// caller holds the exclusive root lock.
func (t *BTree) splitChild(n *btNode, ci int) {
	child := n.children[ci]
	mid := t.degree - 1
	right := &btNode{leaf: child.leaf}
	var sep []byte
	if child.leaf {
		// Leaf split: right keeps keys[mid:], separator is right's first key.
		right.keys = append(right.keys, child.keys[mid:]...)
		right.vals = append(right.vals, child.vals[mid:]...)
		child.keys = child.keys[:mid]
		child.vals = child.vals[:mid]
		right.next = child.next
		child.next = right
		sep = right.keys[0]
	} else {
		sep = child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
	}
	n.keys = append(n.keys, nil)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
}

// Delete removes key, reporting whether it existed. Deletion is lazy:
// leaves may underflow (the classic approach of production B-trees that
// rely on reinsertion patterns; Demaq slice churn reuses freed cells via
// subsequent inserts), which is why it always fits under the shared root
// lock plus the leaf latch.
func (t *BTree) Delete(key []byte) bool {
	t.latch.RLock()
	defer t.latch.RUnlock()
	n := t.descend(key)
	n.mu.Lock()
	defer n.mu.Unlock()
	i, found := n.findKey(key)
	if !found {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	t.size.Add(-1)
	return true
}

// Scan visits keys in [lo, hi) in order; nil bounds are open. fn returns
// false to stop. The leaf chain makes range scans sequential, which is what
// slice access relies on. The walk latches one leaf at a time under the
// shared root lock; fn must not call back into the same tree.
func (t *BTree) Scan(lo, hi []byte, fn func(key, val []byte) bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	n := t.root
	for !n.leaf {
		if lo == nil {
			n = n.children[0]
		} else {
			n = n.children[n.childIndex(lo)]
		}
	}
	for n != nil {
		n.mu.Lock()
		i := 0
		if lo != nil {
			i, _ = n.findKey(lo)
		}
		for ; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				n.mu.Unlock()
				return
			}
			if !fn(n.keys[i], n.vals[i]) {
				n.mu.Unlock()
				return
			}
		}
		next := n.next // stable under the shared root lock
		n.mu.Unlock()
		n = next
		lo = nil
	}
}

// ScanPrefixFrom visits the keys with the given prefix starting at lo
// (inclusive; lo must itself carry the prefix). It bounds an id-suffixed
// index scan from below without giving up the exact prefix upper bound.
func (t *BTree) ScanPrefixFrom(prefix, lo []byte, fn func(key, val []byte) bool) {
	t.Scan(lo, prefixEnd(prefix), fn)
}

// prefixEnd returns the smallest key greater than every key with the
// prefix, or nil if no such key exists.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
