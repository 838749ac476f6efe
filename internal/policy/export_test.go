package policy

// AllocLimit returns the current epoch allocation budget in bytes (the
// value Due compares allocBytes against).
func (p *RCPacer) AllocLimit() int64 { return p.allocLimit.Load() }
