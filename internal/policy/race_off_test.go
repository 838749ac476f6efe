//go:build !race

package policy_test

const voteDepth = 8
