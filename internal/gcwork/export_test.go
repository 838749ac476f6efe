package gcwork

// Spawned returns how many worker goroutines this pool has ever created.
// After any number of phases it stays at N — the persistence guarantee
// tests assert.
func (p *Pool) Spawned() int64 { return p.spawned.Load() }
