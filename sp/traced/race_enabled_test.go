//go:build race

package traced

// raceEnabled tells the allocation guards that the race detector's
// instrumentation is counting allocations of its own.
const raceEnabled = true
