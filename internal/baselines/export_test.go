package baselines

// PausesYoung returns young pause count.
func (p *G1) PausesYoung() int64 { return p.pausesYoung }

// PausesMixed returns mixed pause count.
func (p *G1) PausesMixed() int64 { return p.pausesMixed }

// EvacFailures returns how many objects were promoted in place because
// the evacuation copy space was exhausted.
func (p *G1) EvacFailures() int64 { return p.evacFailures.Load() }

// SetG1AuditForTest toggles the mixed-collection audit independently of
// the environment.
func SetG1AuditForTest(on bool) { g1AuditEnabled = on }

// MixedAudits reports how many mixed pauses ran the evacuation audit,
// so tests can assert the property was actually exercised.
func (p *G1) MixedAudits() int64 { return p.mixedAudits.Load() }
