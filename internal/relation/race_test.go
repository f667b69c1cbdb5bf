//go:build race

package relation

func init() { raceEnabled = true }
