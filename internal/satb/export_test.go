package satb

// Active reports whether a trace epoch is underway.
func (t *Tracer) Active() bool { return t.active }
