//go:build !race

package sacvm

const raceEnabled = false
