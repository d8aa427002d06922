package msgstore

// FlushDocCache empties the document cache, so the next reads decode their
// documents from the page store.
func (ms *Store) FlushDocCache() { ms.cache.clear() }
