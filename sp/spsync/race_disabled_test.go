//go:build !race

package spsync

// raceEnabled tells the allocation guards that the race detector's
// instrumentation is counting allocations of its own.
const raceEnabled = false
