//go:build !race

package shadow

// raceEnabled tells the allocation guards that the race detector's
// instrumentation is counting allocations of its own.
const raceEnabled = false
