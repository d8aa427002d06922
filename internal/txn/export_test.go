package txn

// Held returns a snapshot of the locks a transaction holds.
func (lm *LockManager) Held(txn uint64) map[string]Mode {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	out := map[string]Mode{}
	for r, m := range lm.held[txn] {
		out[r] = m
	}
	return out
}
