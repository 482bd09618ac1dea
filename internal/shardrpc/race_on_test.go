//go:build race

package shardrpc

// raceEnabled reports a -race build, whose instrumentation changes
// allocation counts, so the memory budgets skip themselves there.
const raceEnabled = true
