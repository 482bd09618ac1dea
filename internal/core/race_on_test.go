//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts and byte totals (and drops sync.Pool items at
// random), so the memory budgets skip themselves there.
const raceEnabled = true
