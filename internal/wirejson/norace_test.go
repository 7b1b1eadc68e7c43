//go:build !race

package wirejson

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
