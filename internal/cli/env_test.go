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
	if r, err := DevFaultRate(); r != 0 || err != nil {
		t.Errorf("unset: got (%v, %v), want (0, nil)", r, err)
	}
	t.Setenv(EnvDevFaultRate, "0.1")
	if r, err := DevFaultRate(); r != 0.1 || err != nil {
		t.Errorf("set: got (%v, %v), want (0.1, nil)", r, err)
	}
	for _, bad := range []string{"banana", "1.5", "-0.1", "2", " 0.1"} {
		t.Setenv(EnvDevFaultRate, bad)
		r, err := DevFaultRate()
		if err == nil {
			t.Errorf("env %q: got (%v, nil), want error", bad, r)
			continue
		}
		if !strings.Contains(err.Error(), EnvDevFaultRate) || !strings.Contains(err.Error(), bad) {
			t.Errorf("env %q: error %q should name the variable and the value", bad, err)
		}
	}
}
