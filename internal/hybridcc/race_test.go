//go:build race

package hybridcc

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops entries at random and allocation counts mean nothing.
const raceEnabled = true
