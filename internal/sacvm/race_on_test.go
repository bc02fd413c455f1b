//go:build race

package sacvm

// raceEnabled reports whether this test binary was built with -race, under
// which sync.Pool drops items at random, so allocation gates do not hold.
const raceEnabled = true
