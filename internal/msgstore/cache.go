package msgstore

import (
	"container/list"
	"sync"

	"demaq/internal/xmldom"
)

// docCache is a lock-striped LRU cache of materialized message documents.
// Store.Doc hands the same *xmldom.Node to every caller — concurrent rule
// evaluations of the same message share one tree without copying or
// locking. That is sound only because sealed xmldom trees are deeply
// immutable (see the contract on xmldom.Node): readers traverse, and
// anything that needs an owned tree (do enqueue payloads, constructor
// content) deep-copies. The contract is enforced under -race by
// TestDocCacheSharedEvaluationRace.
//
// Striping: entries are partitioned by MsgID across up to
// maxCacheShards independent LRU shards, each behind its own mutex, so the
// per-Doc cache probe of every worker no longer funnels through one global
// lock. The configured capacity is split exactly across the shards (small
// capacities use fewer shards so per-shard capacity stays ≥ 1), which
// keeps the aggregate size/capacity accounting exact; hit/miss/eviction
// counters are per-shard and summed on Stats.
type docCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	lru *list.List
	m   map[MsgID]*list.Element

	hits, misses, evictions uint64
}

type cacheEntry struct {
	id  MsgID
	doc *xmldom.Node
	// fp != 0: doc is a partial tree decoded under the projection with this
	// fingerprint (spans skipped); pruned lists the element local names
	// inside the spans. fp == 0: doc is the complete document.
	fp     uint64
	pruned []string
}

const maxCacheShards = 16

func newDocCache(capacity int) *docCache {
	if capacity < 1 {
		capacity = 1
	}
	n := maxCacheShards
	if capacity < n {
		n = capacity
	}
	c := &docCache{shards: make([]cacheShard, n)}
	base, rem := capacity/n, capacity%n
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cap = base
		if i < rem {
			sh.cap++
		}
		sh.lru = list.New()
		sh.m = map[MsgID]*list.Element{}
	}
	return c
}

func (c *docCache) shard(id MsgID) *cacheShard {
	return &c.shards[uint64(id)%uint64(len(c.shards))]
}

// get returns a complete cached document. Partial entries (projected
// decodes) count as misses: the caller needs the full tree and will
// materialize and re-put it.
func (c *docCache) get(id MsgID) (*xmldom.Node, bool) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[id]; ok {
		e := el.Value.(*cacheEntry)
		if e.fp == 0 {
			sh.hits++
			sh.lru.MoveToFront(el)
			return e.doc, true
		}
	}
	sh.misses++
	return nil, false
}

// getProjected returns a cached document usable under the given projection
// fingerprint: either a complete document (always usable) or a partial one
// decoded under the same fingerprint.
func (c *docCache) getProjected(id MsgID, fp uint64) (*xmldom.Node, []string, bool) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[id]; ok {
		e := el.Value.(*cacheEntry)
		if e.fp == 0 || e.fp == fp {
			sh.hits++
			sh.lru.MoveToFront(el)
			return e.doc, e.pruned, true
		}
	}
	sh.misses++
	return nil, nil, false
}

func (c *docCache) put(id MsgID, doc *xmldom.Node) {
	c.putEntry(id, doc, 0, nil)
}

// putProjected caches a partial document decoded under a projection.
func (c *docCache) putProjected(id MsgID, doc *xmldom.Node, fp uint64, pruned []string) {
	c.putEntry(id, doc, fp, pruned)
}

func (c *docCache) putEntry(id MsgID, doc *xmldom.Node, fp uint64, pruned []string) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[id]; ok {
		e := el.Value.(*cacheEntry)
		if fp != 0 && e.fp == 0 {
			// Never replace a complete document with a partial one.
			sh.lru.MoveToFront(el)
			return
		}
		e.doc, e.fp, e.pruned = doc, fp, pruned
		sh.lru.MoveToFront(el)
		return
	}
	el := sh.lru.PushFront(&cacheEntry{id: id, doc: doc, fp: fp, pruned: pruned})
	sh.m[id] = el
	for sh.lru.Len() > sh.cap {
		back := sh.lru.Back()
		sh.lru.Remove(back)
		delete(sh.m, back.Value.(*cacheEntry).id)
		sh.evictions++
	}
}

func (c *docCache) drop(id MsgID) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[id]; ok {
		sh.lru.Remove(el)
		delete(sh.m, id)
	}
}

// clear empties the cache without touching the counters.
func (c *docCache) clear() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.lru.Init()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// stats sums the per-shard counters into a Stats value. Each shard is
// snapshotted under its own mutex; the aggregate is exact per shard.
func (c *docCache) stats() Stats {
	var st Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.DocCacheHits += sh.hits
		st.DocCacheMisses += sh.misses
		st.DocCacheEvictions += sh.evictions
		st.DocCacheSize += sh.lru.Len()
		st.DocCacheCap += sh.cap
		sh.mu.Unlock()
	}
	return st
}
