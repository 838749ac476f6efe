//go:build race

package immix_test

// raceEnabled lets the immix stress tests run fewer rounds under the
// race detector, whose instrumentation slows each round more than a hundredfold.
const raceEnabled = true
