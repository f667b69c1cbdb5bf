//go:build race

package extmem

func init() { raceEnabled = true }
