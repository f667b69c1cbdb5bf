package cli

import (
	"fmt"
	"os"
	"strconv"
)

// Environment variables honored when the corresponding flag or Options field
// is left unset. A flag always wins over its environment variable;
// ACYCLICJOIN_DEVFAULTRATE has no flag.
const (
	// EnvStrategy selects the planning strategy (see acyclicjoin.ParseStrategy).
	EnvStrategy = "ACYCLICJOIN_STRATEGY"
	// EnvBackend selects the storage engine ("sim" or "file").
	EnvBackend = "ACYCLICJOIN_BACKEND"
	// EnvDataDir locates the file backend's backing file.
	EnvDataDir = "ACYCLICJOIN_DATADIR"
	// EnvDevFaultRate arms a device-layer fault plan (seed 1) at this
	// per-syscall transient fault probability on the file backend.
	EnvDevFaultRate = "ACYCLICJOIN_DEVFAULTRATE"
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

// DevFaultRate reads $ACYCLICJOIN_DEVFAULTRATE: 0 (no device faults) when
// unset, else a probability in [0, 1]. Errors carry no package prefix so
// callers can wrap them under their own name.
func DevFaultRate() (float64, error) {
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
