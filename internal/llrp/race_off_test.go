//go:build !race

package llrp

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
