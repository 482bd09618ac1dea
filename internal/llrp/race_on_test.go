//go:build race

package llrp

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts, so the memory budgets skip themselves there.
const raceEnabled = true
