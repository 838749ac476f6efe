//go:build !race

package immix_test

const raceEnabled = false
