//go:build race

package policy_test

// voteDepth is the exhaustive vote check's bound. Under the race
// detector the predictors' mutexes cost twenty times as much, and the
// two pauses dropped reach no state the six do not.
const voteDepth = 6
