//go:build race

package wirejson

// raceEnabled reports a -race build, under which the random-double
// property runs a tenth of its cases.
const raceEnabled = true
