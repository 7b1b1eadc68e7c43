//go:build !race

package control

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
