package cli

import (
	"fmt"
	"os"
	"strconv"
)

// Environment variables honored when the corresponding flag or Options field
// is left unset. A flag always wins over its environment variable.
const (
	// EnvStrategy selects the planning strategy (see acyclicjoin.ParseStrategy).
	EnvStrategy = "ACYCLICJOIN_STRATEGY"
	// EnvBackend selects the storage engine ("sim" or "file").
	EnvBackend = "ACYCLICJOIN_BACKEND"
	// EnvDataDir locates the file backend's backing file.
	EnvDataDir = "ACYCLICJOIN_DATADIR"
	// EnvDevFaultRate sets the per-syscall transient fault probability for
	// the file backend's device-level chaos rig (internal/extmem/faultbackend).
	EnvDevFaultRate = "ACYCLICJOIN_DEVFAULTRATE"
	// EnvDevFaultSeed seeds the device-level fault schedule.
	EnvDevFaultSeed = "ACYCLICJOIN_DEVFAULTSEED"
)

// StrategyName resolves a -strategy selection: the flag value when nonempty,
// else $ACYCLICJOIN_STRATEGY (possibly empty, meaning the default strategy).
func StrategyName(flag string) string { return stringOr(flag, EnvStrategy) }

// BackendName resolves a -backend selection: the flag value when nonempty,
// else $ACYCLICJOIN_BACKEND (possibly empty, meaning the sim backend).
func BackendName(flag string) string { return stringOr(flag, EnvBackend) }

// DataDir resolves a -datadir selection: the flag value when nonempty, else
// $ACYCLICJOIN_DATADIR (possibly empty, meaning the system temp directory).
func DataDir(flag string) string { return stringOr(flag, EnvDataDir) }

func stringOr(flag, env string) string {
	if flag != "" {
		return flag
	}
	return os.Getenv(env)
}

// DevFaultRate resolves a -devfaultrate selection: the flag value when
// nonzero, else $ACYCLICJOIN_DEVFAULTRATE, else 0 (no device faults). An
// environment value that is set must parse as a probability in [0, 1].
// Errors carry no package prefix so callers can wrap them under their own
// name.
func DevFaultRate(flag float64) (float64, error) {
	if flag != 0 {
		return flag, nil
	}
	s := os.Getenv(EnvDevFaultRate)
	if s == "" {
		return 0, nil
	}
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || r < 0 || r > 1 {
		return 0, fmt.Errorf("bad %s=%q (want a probability in [0, 1])", EnvDevFaultRate, s)
	}
	return r, nil
}

// DevFaultSeed resolves a -devfaultseed selection: the flag value when
// nonzero, else $ACYCLICJOIN_DEVFAULTSEED, else 1 (the default seed, matching
// the -faultseed convention). An environment value that is set must parse as
// an integer.
func DevFaultSeed(flag int64) (int64, error) {
	if flag != 0 {
		return flag, nil
	}
	s := os.Getenv(EnvDevFaultSeed)
	if s == "" {
		return 1, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q (want an integer)", EnvDevFaultSeed, s)
	}
	return n, nil
}
