//go:build !race

package hybridcc

const raceEnabled = false
