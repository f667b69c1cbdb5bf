package cli

import (
	"strings"
	"testing"
)

// The three string-valued selections share one contract: a nonempty flag wins
// outright, an empty flag falls back to the environment, and both empty means
// the library default (empty string).
func TestStringEnvFallbacks(t *testing.T) {
	cases := []struct {
		name    string
		env     string
		resolve func(string) string
	}{
		{"strategy", EnvStrategy, StrategyName},
		{"backend", EnvBackend, BackendName},
		{"datadir", EnvDataDir, DataDir},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv(c.env, "")
			if got := c.resolve(""); got != "" {
				t.Errorf("both unset: got %q, want empty", got)
			}
			if got := c.resolve("flagval"); got != "flagval" {
				t.Errorf("flag only: got %q, want flagval", got)
			}
			t.Setenv(c.env, "envval")
			if got := c.resolve(""); got != "envval" {
				t.Errorf("env only: got %q, want envval", got)
			}
			if got := c.resolve("flagval"); got != "flagval" {
				t.Errorf("flag beats env: got %q, want flagval", got)
			}
		})
	}
}

func TestDevFaultRateResolution(t *testing.T) {
	t.Setenv(EnvDevFaultRate, "")
	if r, err := DevFaultRate(0); r != 0 || err != nil {
		t.Errorf("both unset: got (%v, %v), want (0, nil)", r, err)
	}
	if r, err := DevFaultRate(0.25); r != 0.25 || err != nil {
		t.Errorf("flag only: got (%v, %v), want (0.25, nil)", r, err)
	}
	t.Setenv(EnvDevFaultRate, "0.1")
	if r, err := DevFaultRate(0); r != 0.1 || err != nil {
		t.Errorf("env only: got (%v, %v), want (0.1, nil)", r, err)
	}
	if r, err := DevFaultRate(0.02); r != 0.02 || err != nil {
		t.Errorf("flag beats env: got (%v, %v), want (0.02, nil)", r, err)
	}
	// A set flag short-circuits before the environment is parsed at all.
	t.Setenv(EnvDevFaultRate, "banana")
	if r, err := DevFaultRate(0.5); r != 0.5 || err != nil {
		t.Errorf("flag with junk env: got (%v, %v), want (0.5, nil)", r, err)
	}
	for _, bad := range []string{"banana", "1.5", "-0.1", "2", " 0.1"} {
		t.Setenv(EnvDevFaultRate, bad)
		r, err := DevFaultRate(0)
		if err == nil {
			t.Errorf("env %q: got (%v, nil), want error", bad, r)
			continue
		}
		if !strings.Contains(err.Error(), EnvDevFaultRate) || !strings.Contains(err.Error(), bad) {
			t.Errorf("env %q: error %q should name the variable and the value", bad, err)
		}
	}
}

func TestDevFaultSeedResolution(t *testing.T) {
	t.Setenv(EnvDevFaultSeed, "")
	if s, err := DevFaultSeed(0); s != 1 || err != nil {
		t.Errorf("both unset: got (%d, %v), want (1, nil)", s, err)
	}
	if s, err := DevFaultSeed(42); s != 42 || err != nil {
		t.Errorf("flag only: got (%d, %v), want (42, nil)", s, err)
	}
	t.Setenv(EnvDevFaultSeed, "7")
	if s, err := DevFaultSeed(0); s != 7 || err != nil {
		t.Errorf("env only: got (%d, %v), want (7, nil)", s, err)
	}
	if s, err := DevFaultSeed(3); s != 3 || err != nil {
		t.Errorf("flag beats env: got (%d, %v), want (3, nil)", s, err)
	}
	t.Setenv(EnvDevFaultSeed, "-9")
	if s, err := DevFaultSeed(0); s != -9 || err != nil {
		t.Errorf("negative env seed is legal: got (%d, %v), want (-9, nil)", s, err)
	}
	t.Setenv(EnvDevFaultSeed, "banana")
	if s, err := DevFaultSeed(5); s != 5 || err != nil {
		t.Errorf("flag with junk env: got (%d, %v), want (5, nil)", s, err)
	}
	for _, bad := range []string{"banana", "1.5", ""} {
		if bad == "" {
			continue
		}
		t.Setenv(EnvDevFaultSeed, bad)
		s, err := DevFaultSeed(0)
		if err == nil {
			t.Errorf("env %q: got (%d, nil), want error", bad, s)
			continue
		}
		if !strings.Contains(err.Error(), EnvDevFaultSeed) || !strings.Contains(err.Error(), bad) {
			t.Errorf("env %q: error %q should name the variable and the value", bad, err)
		}
	}
}
