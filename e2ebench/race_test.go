//go:build race

package main

// raceEnabled reports a -race build. The race detector slows the
// program several-fold, so serve-http's open loop cannot keep its
// arrival schedule there.
const raceEnabled = true
