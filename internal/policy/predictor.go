package policy

import "sync"

// DecayPredictor is the paper's 3:1 conservatively biased exponential
// decay predictor (§3.2.1). When an observation exceeds the current
// prediction, the new prediction weights the observation 3/4 : 1/4
// (reacting quickly in the conservative direction); otherwise the
// weights reverse (forgetting slowly).
type DecayPredictor struct {
	mu    sync.Mutex
	value float64
}

// NewDecayPredictor creates a predictor with an initial value.
func NewDecayPredictor(initial float64) *DecayPredictor {
	return &DecayPredictor{value: initial}
}

// Observe folds a new observation into the prediction.
func (p *DecayPredictor) Observe(x float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if x > p.value {
		p.value = 0.75*x + 0.25*p.value
	} else {
		p.value = 0.25*x + 0.75*p.value
	}
}

// Predict returns the current prediction.
func (p *DecayPredictor) Predict() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.value
}
